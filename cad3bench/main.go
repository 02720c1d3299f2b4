// Command cad3bench is the CAD3 benchmark: one workload per run, printing
// a run manifest, a human-readable report and, as its last line, one JSON
// object with the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run). It exits nonzero when a correctness gate
// fails. Build and run it from the repository root through run.sh:
//
//	bash cad3bench/run.sh --workload rsu-live --seed 1 --seconds 30 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gitRev is stamped by run.sh when the checkout is a git repository.
var gitRev = "unknown"

// endToEnd and perLayer are the metric inventory, name -> unit.
// BENCHMARK.json lists the same names (bench_test.go checks it).
var endToEnd = map[string]string{
	"setup_s":           "s",
	"ok_frac":           "frac",
	"warn_p50_ms":       "ms",
	"warn_p99_ms":       "ms",
	"cpu_us_per_record": "us",
	"catchup_rps":       "1/s",
	"realtime_x":        "x",
	"live_heap_mb":      "MB",
}

var perLayer = map[string]string{
	"core.encode_ns":            "ns",
	"stream.flush_us":           "us",
	"stream.flush_records":      "count",
	"stream.ingest_rps":         "1/s",
	"stream.fetch_us":           "us",
	"stream.fetch_msgs":         "count",
	"stream.produce_us":         "us",
	"stream.poll_us":            "us",
	"detect.detect_ns":          "ns",
	"detect.proba_ns":           "ns",
	"detect.proba_calls":        "count",
	"rsu.step_ms_p50":           "ms",
	"rsu.step_ms_p99":           "ms",
	"rsu.step_self_ms":          "ms",
	"rsu.step_records":          "count",
	"microbatch.cores":          "cores",
	"rsu.handover_us":           "us",
	"rsu.saturated_frac":        "frac",
	"rsu.backlog_max":           "count",
	"rsu.prior_hit_ratio":       "frac",
	"gen.late_ms":               "ms",
	"go.alloc_bytes_per_record": "B",
	"go.alloc_bytes_per_event":  "B",
	"go.gc_cycles":              "count",
	"go.gc_pause_ms":            "ms",
	"city.advance_ms_p50":       "ms",
	"city.advance_ms_p99":       "ms",
	"city.events_per_window":    "count",
	"city.ns_per_event":         "ns",
	"stream.router_produce_us":  "us",
	"stream.router_produces":    "count",
	"geo.build_network_s":       "s",
	"city.new_driver_s":         "s",
	"city.start_s":              "s",
	"prof.netem":                "frac",
	"prof.stream":               "frac",
	"prof.geo":                  "frac",
	"prof.city":                 "frac",
	"prof.core":                 "frac",
	"prof.mlkit":                "frac",
	"prof.microbatch":           "frac",
	"prof.rsu":                  "frac",
	"prof.runtime":              "frac",
	"prof.other":                "frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric from the inventory; an unknown name is a bug.
func (m metrics) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("cad3bench: metric not in the inventory: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("cad3bench: non-finite value for " + name)
	}
	m[name] = metric{v, unit}
}

// outcome is one workload run.
type outcome struct {
	attempted, failed int64
	gates             []string // failed correctness gates
	e2e, layer        metrics
	report            []string
	// digest identifies the run's correctness outputs (warning set,
	// settlement, city statistics); a traced and an untraced run on the
	// same seed must agree on it.
	digest string
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layer: metrics{}} }

func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.gates = append(o.gates, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// config sizes every workload. defaultConfig is what the benchmark runs;
// the tests shrink it.
type config struct {
	Seconds time.Duration
	RSU     rsuConfig
	City    cityConfig
}

func defaultConfig(seconds int) config {
	return config{
		Seconds: time.Duration(seconds) * time.Second,
		RSU:     rsuConfig{Slots: 10_000, RoundsPerSecond: 8, Setups: 9},
		City:    cityConfig{Vehicles: 100_000, Shards: 8, Setups: 5},
	}
}

var workloads = map[string]func(cfg config, seed int64, traced bool) (*outcome, error){
	"rsu-live":    runLive,
	"rsu-catchup": runCatchup,
	"city":        runCity,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("cad3bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "rsu-live, rsu-catchup or city")
	seed := fl.Int64("seed", 1, "seed for the generated inputs")
	seconds := fl.Int("seconds", 10, "how long one run measures")
	traced := fl.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "cad3bench: usage: --workload rsu-live|rsu-catchup|city --seed N --seconds N --trace 0|1\n")
		return 2
	}
	// The city is one single-threaded event loop on a virtual clock, so it
	// runs on one P: the collector's work is then charged to the loop
	// instead of hiding on an idle core, and the result does not hang on
	// how much of a second vCPU a shared host grants at the time. The RSU
	// workloads run goroutines in parallel and get every core.
	procs := runtime.NumCPU()
	if *workload == "city" {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	cfg := defaultConfig(*seconds)

	manifest := map[string]any{
		"workload":    *workload,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *traced,
		"cpu":         cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"git_rev":     gitRev,
		"src_hash":    sourceHash(),
		"config_hash": configHash(*workload, cfg),
	}
	mj, _ := json.Marshal(manifest) // strings and ints: cannot fail
	fmt.Fprintf(stdout, "manifest %s\n", mj)

	o, err := fn(cfg, *seed, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cad3bench: %s: %v\n", *workload, err)
		return 1
	}
	for _, line := range o.report {
		fmt.Fprintln(stdout, line)
	}
	out := o.e2e
	if *traced == 1 {
		// Tracing overhead is the gap between these and an untraced run.
		line := "traced run end-to-end:"
		for _, name := range sortedKeys(o.e2e) {
			line += fmt.Sprintf(" %s=%.6g", name, o.e2e[name].Value)
		}
		fmt.Fprintln(stdout, line)
		out = o.layer
		for name := range perLayer {
			if _, ok := out[name]; !ok {
				out.set(name, 0) // the layer is not on this workload's path
			}
		}
	}
	for _, name := range sortedKeys(out) {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	for _, g := range o.gates {
		fmt.Fprintf(stdout, "GATE FAILED: %s\n", g)
	}
	res, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(o.gates) == 0, o.attempted, o.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cad3bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", res)
	if len(o.gates) > 0 {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// configHash identifies the workload's configuration, constants included.
func configHash(workload string, cfg config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %+v catchup=%d city=%d/%v/%v/%v/%v/%d", workload, cfg, catchupMs,
		cityReplicas, cityVirtualPerSecond, cityMaxDuration, cityScale, cityExtentMeters, cityNetworkSeed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sourceHash identifies the code under test when the checkout carries no
// git metadata: a hash over the Go sources of the module and benchmark.
func sourceHash() string {
	h := fnv.New64a()
	for _, root := range []string{"go.mod", "internal", "cmd", "cad3bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			_, _ = h.Write(b)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v (nearest rank on a sorted copy).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
