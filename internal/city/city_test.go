package city

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cad3/internal/geo"
	"cad3/internal/obsv"
)

// testNetwork builds a small deterministic synthetic city, densified so
// random walks keep moving.
func testNetwork(t *testing.T, seed int64) *geo.Network {
	t.Helper()
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: 0.05, ExtentMeters: 6000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if added := geo.ConnectNearest(net, 2, 1500); added == 0 {
		t.Fatal("ConnectNearest added no connections")
	}
	return net
}

func testConfig(t *testing.T, net *geo.Network) Config {
	t.Helper()
	return Config{
		Network:    net,
		Shards:     4,
		CellMeters: 1000,
		Vehicles:   150,
		Seed:       7,
		Duration:   3 * time.Minute,
		// High rates so a short run still exercises every path.
		EventsPerVehicleHour: 30,
		ProbesPerVehicleHour: 60,
	}
}

func runCity(t *testing.T, cfg Config) *Report {
	t.Helper()
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCityRunSettlesClean is the tentpole invariant at unit scale: a
// multi-shard run with live handover traffic settles with zero warnings
// lost or double-counted and zero handover summaries lost, duplicated
// or misrouted.
func TestCityRunSettlesClean(t *testing.T) {
	rep := runCity(t, testConfig(t, testNetwork(t, 1)))
	if rep.Telemetry == 0 || rep.Abnormal == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Handovers == 0 {
		t.Fatal("no shard handovers in a 4-shard city run")
	}
	if rep.HandoverSummaries == 0 {
		t.Fatal("no summaries crossed shards")
	}
	if rep.WarningsDelivered == 0 {
		t.Fatal("no warnings delivered")
	}
	if !rep.SettlementClean() {
		t.Fatalf("settlement dirty:\n%s", rep)
	}
	if rep.TelemetryUnacked != 0 {
		t.Fatalf("telemetry unacked without faults: %d", rep.TelemetryUnacked)
	}
	if rep.PriorHits == 0 {
		t.Fatal("no collaborative prior hits: handed-over summaries never consulted")
	}
	if rep.SiteHandovers < rep.Handovers {
		t.Fatalf("site handovers %d < shard handovers %d", rep.SiteHandovers, rep.Handovers)
	}
}

// TestCityDeterministicReport: identical config and seed produce
// byte-identical reports — the property every scenario replay and
// regression seed depends on.
func TestCityDeterministicReport(t *testing.T) {
	a := runCity(t, testConfig(t, testNetwork(t, 1)))
	b := runCity(t, testConfig(t, testNetwork(t, 1)))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	c := func() Config {
		cfg := testConfig(t, testNetwork(t, 1))
		cfg.Seed = 8
		return cfg
	}()
	if reflect.DeepEqual(a, runCity(t, c)) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestCityGoldenReport pins the complete report of two fixed runs, one
// with replica faults. TestCityDeterministicReport compares two runs of
// the same code, so it cannot see a change to the event loop that alters
// results; this test can. (The tie order of simultaneous events is held
// by netem's TestSimulatorMatchesReferenceOrder: these two reports do not
// depend on it.) A deliberate change to the city's behaviour updates the
// digests.
func TestCityGoldenReport(t *testing.T) {
	faulted := testConfig(t, testNetwork(t, 1))
	faulted.Faults = []Fault{
		{At: 30 * time.Second, Shard: 0, Replica: 0},
		{At: 90 * time.Second, Shard: 0, Replica: 0, Revive: true},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"plain", testConfig(t, testNetwork(t, 1)), "b23660a6398a24b2803e52b1279f4d224c0761ca88195f54ebb8058d1022ff36"},
		{"faults", faulted, "4c147234a45382f861c7eeac2fa6c07d17e634871ea95786935d26a5434bb900"},
	} {
		rep := runCity(t, tc.cfg)
		full := fmt.Sprintf("%+v", *rep)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(full))); got != tc.want {
			t.Errorf("%s: report digest %s, want %s; report:\n%s", tc.name, got, tc.want, full)
		}
	}
}

// TestCityLeaderKillZeroLoss kills one replica of two shards mid-run
// (leaderless windows + elections) and revives them later: the
// settlement must still be clean — acked telemetry and ledgered
// handovers survive broker failover.
func TestCityLeaderKillZeroLoss(t *testing.T) {
	cfg := testConfig(t, testNetwork(t, 1))
	cfg.Faults = []Fault{
		{At: 30 * time.Second, Shard: 0, Replica: 0},
		{At: 45 * time.Second, Shard: 1, Replica: 0},
		{At: 90 * time.Second, Shard: 0, Replica: 0, Revive: true},
		{At: 2 * time.Minute, Shard: 1, Replica: 0, Revive: true},
	}
	rep := runCity(t, cfg)
	if rep.Elections == 0 {
		t.Fatal("killed two leaders, saw no elections")
	}
	if !rep.SettlementClean() {
		t.Fatalf("settlement dirty after failover:\n%s", rep)
	}
	if rep.TelemetryUnacked != 0 {
		t.Fatalf("telemetry never acked after revival: %d", rep.TelemetryUnacked)
	}
}

// TestCityLoadSkewBounded: with position-cell sharding the per-shard
// dwell load stays within a small factor of the median even at unit
// scale (the scaled acceptance gate is 1.5x; small fleets are noisier).
func TestCityLoadSkewBounded(t *testing.T) {
	rep := runCity(t, testConfig(t, testNetwork(t, 1)))
	if rep.DwellMedianMs == 0 {
		t.Fatalf("no dwell recorded: %+v", rep.ShardDwellMs)
	}
	if skew := rep.Skew(); skew > 3.0 {
		t.Fatalf("shard dwell skew %.2fx > 3.0x: %v", skew, rep.ShardDwellMs)
	}
	for i, d := range rep.ShardDwellMs {
		if d == 0 {
			t.Fatalf("shard %d saw no vehicles: %v", i, rep.ShardDwellMs)
		}
	}
}

// TestCityMetricsExported: supplying a registry exposes the city.* and
// shard.* family, and the gauges agree with the report.
func TestCityMetricsExported(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := testConfig(t, testNetwork(t, 1))
	cfg.Metrics = reg
	rep := runCity(t, cfg)
	snap := snapshotMap(reg)
	for _, name := range []string{
		"city.telemetry", "city.warnings", "city.handovers",
		"city.handover_applied", "shard.skew_x1000", "shard.dwell_max_ms",
		"repl.follower_fetches", "shard.router.sent",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %q not exported", name)
		}
	}
	if snap["city.telemetry"] != rep.Telemetry {
		t.Fatalf("city.telemetry gauge %d != report %d", snap["city.telemetry"], rep.Telemetry)
	}
	if snap["city.handover_applied"] != rep.HandoverApplied {
		t.Fatal("handover_applied mismatch between registry and report")
	}
}

func snapshotMap(reg *obsv.Registry) map[string]int64 {
	out := make(map[string]int64)
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		out[name] = v
	}
	for name, v := range snap.Gauges {
		out[name] = v
	}
	return out
}

// TestCityDriverRunsOnce: a Driver refuses a second Run.
func TestCityDriverRunsOnce(t *testing.T) {
	d, err := NewDriver(testConfig(t, testNetwork(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestCityConfigValidation: a missing network is refused.
func TestCityConfigValidation(t *testing.T) {
	if _, err := NewDriver(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
