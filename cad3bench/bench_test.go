package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/stream"
)

// smallConfig shrinks every workload to a second or two.
func smallConfig() config {
	return config{
		Seconds: time.Second,
		RSU:     rsuConfig{Slots: 1000, RoundsPerSecond: 4, Setups: 1},
		City:    cityConfig{Vehicles: 2000, Shards: 4, Setups: 1},
	}
}

// TestTracedRunMatchesUntraced runs each workload untraced and traced on
// the same seed: both must pass every correctness gate and agree on the
// warning sets, settlement and city statistics (the digest).
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			var digests [2]string
			for i, traced := range []bool{false, true} {
				o, err := workloads[name](smallConfig(), 7, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(o.gates) > 0 || o.failed != 0 || o.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d failed, gates %v", traced, o.failed, o.attempted, o.gates)
				}
				for metric := range endToEnd {
					if _, ok := o.e2e[metric]; !ok {
						t.Errorf("traced=%v: end-to-end metric %s missing", traced, metric)
					}
				}
				if traced && len(o.layer) == 0 {
					t.Errorf("traced run reported no per-layer metrics")
				}
				digests[i] = o.digest
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("digest untraced %q, traced %q", digests[0], digests[1])
			}
		})
	}
}

// TestDecoratorsKeepInterfaces checks that wrapping hides and adds no
// optional interface the code under test asserts for.
func TestDecoratorsKeepInterfaces(t *testing.T) {
	sc, err := experiments.BuildScenario(experiments.ScenarioConfig{Cars: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []core.Detector{sc.CAD3, sc.AD3, core.NewCentralized()} {
		w := traceDetector(det, &detectTracer{})
		_, wantW := det.(weighted)
		_, wantP := det.(probaSource)
		if _, got := w.(weighted); got != wantW {
			t.Errorf("%s: Weight offered %v, wrapped %v", det.Name(), wantW, got)
		}
		if _, got := w.(probaSource); got != wantP {
			t.Errorf("%s: PredictProba offered %v, wrapped %v", det.Name(), wantP, got)
		}
	}

	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{},
		stream.Replica{ID: "r0", Broker: stream.NewBroker(stream.BrokerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	clients := []stream.Client{stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{})), rs.Client(stream.AckAll)}
	for _, c := range clients {
		w, err := traceClient(c, &clientTracer{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ifaces(w), ifaces(c); got != want {
			t.Errorf("%T: interfaces %v, wrapped %v", c, want, got)
		}
	}
}

func ifaces(c stream.Client) [3]bool {
	_, b := c.(stream.BatchClient)
	_, a := c.(stream.AckClient)
	_, ab := c.(stream.AckBatchClient)
	return [3]bool{b, a, ab}
}

// TestInventoryMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// inventory the binary reports in step.
func TestInventoryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(workloads); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		inv    map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.inv) {
			t.Errorf("BENCHMARK.json lists %d metrics, inventory has %d", len(c.listed), len(c.inv))
		}
		for _, m := range c.listed {
			if unit, ok := c.inv[m.Name]; !ok || unit != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): inventory unit %q", m.Name, m.Unit, unit)
			}
		}
	}
}

// TestCategory pins how profile samples are charged to packages.
func TestCategory(t *testing.T) {
	for fn, want := range map[string]string{
		"cad3/internal/netem.(*Simulator).Step":        "netem",
		"cad3/internal/stream.(*Broker).Produce":       "stream",
		"cad3/internal/obsv.(*Counter).Add":            "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"main.(*tracedClient).Produce":                 "other",
		"container/heap.Pop":                           "",
		"sync.(*Mutex).Lock":                           "",
	} {
		got, ok := category(fn)
		if !ok {
			got = ""
		}
		if got != want {
			t.Errorf("category(%q) = %q, want %q", fn, got, want)
		}
	}
}
