package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"cad3/internal/city"
	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/stream"
)

// The fixed part of the city workload, as `make city` (cad3-city
// -faults) runs it. A run simulates cityVirtualPerSecond for each second
// of --seconds: one city over that span, or, past cityMaxDuration,
// several cities of cityMaxDuration each, set up afresh with the same
// seed. The amount of work is fixed, so every city of a seed must give
// the same digest. The road network is fixed (cityNetworkSeed); --seed
// drives the fleet.
const (
	cityReplicas         = 3
	cityVirtualPerSecond = 3 * time.Minute
	cityMaxDuration      = 30 * time.Minute
	cityScale            = 0.25
	cityExtentMeters     = 12_000
	cityNetworkSeed      = 42
)

// cityConfig sizes the city workload; the tests shrink it.
type cityConfig struct {
	Vehicles, Shards int
	// Setups is the least number of set-ups; setup_s is their median.
	Setups int
}

// citySpans returns how many cities a run simulates and the span of each.
func citySpans(seconds time.Duration) (int, time.Duration) {
	total := time.Duration(seconds.Seconds() * float64(cityVirtualPerSecond))
	if total <= cityMaxDuration {
		return 1, total
	}
	return int(total / cityMaxDuration), cityMaxDuration
}

// cityDigestCounters are the simulated statistics the digest covers.
var cityDigestCounters = []string{
	"city.telemetry", "city.abnormal", "city.probes", "city.warnings", "city.warnings_delivered",
	"city.handovers", "city.handover_summaries", "city.handover_applied", "city.site_handovers",
	"city.prior_hits", "election.count",
}

// cityRig is one set-up city: the network build, NewDriver and Start.
type cityRig struct {
	drv                        *city.Driver
	reg                        *obsv.Registry
	buildS, newDriverS, startS float64
}

func newCity(cfg cityConfig, span time.Duration, seed int64) (*cityRig, error) {
	rg := &cityRig{reg: obsv.NewRegistry()}
	t := time.Now()
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: cityScale, ExtentMeters: cityExtentMeters, Seed: cityNetworkSeed})
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	geo.ConnectNearest(net, 2, 1500)
	rg.buildS = time.Since(t).Seconds()
	// The fault plan cad3-city -faults uses: kill replica 0 of every even
	// shard at a quarter of the run, revive it at three quarters.
	var faults []city.Fault
	for s := 0; s < cfg.Shards; s += 2 {
		faults = append(faults,
			city.Fault{At: span / 4, Shard: s, Replica: 0},
			city.Fault{At: span * 3 / 4, Shard: s, Replica: 0, Revive: true})
	}
	t = time.Now()
	rg.drv, err = city.NewDriver(city.Config{
		Network: net, Shards: cfg.Shards, Vehicles: cfg.Vehicles, Replicas: cityReplicas,
		Duration: span, Seed: seed, Faults: faults, Metrics: rg.reg,
	})
	if err != nil {
		return nil, err
	}
	rg.newDriverS = time.Since(t).Seconds()
	t = time.Now()
	if err := rg.drv.Start(); err != nil {
		return nil, err
	}
	rg.startS = time.Since(t).Seconds()
	return rg, nil
}

func (rg *cityRig) counter(name string) int64 { return rg.reg.Counter(name).Value() }

// cityRun accumulates what a run measures over its cities.
type cityRun struct {
	traced            bool
	router            clientTracer
	advanceMs, warnMs []float64
	warnW             []float64
	blk               blocks // one block per virtual minute
	events, windows   int64
	hostNs            int64
	cpu               time.Duration
	telemetry         int64
	delivered         int64
	mem               memDelta
	prof              map[string]int64
	digests           []string
	audits            []city.Audit
	failed            int64
}

// runCity is the city workload: for each city, Start, then Advance(1s)
// windows through the whole simulated span, then Drain and audit the
// settlement ledgers.
func runCity(cfg config, seed int64, traced bool) (*outcome, error) {
	c := cfg.City
	cities, span := citySpans(cfg.Seconds)
	run := &cityRun{traced: traced, prof: map[string]int64{}}
	var setup, build, newDrv, start []float64
	var rg *cityRig
	for i := 0; i < max(c.Setups, cities); i++ {
		rg = nil
		runtime.GC() // the previous city's memory is not this set-up's cost
		var err error
		if rg, err = newCity(c, span, seed); err != nil {
			return nil, err
		}
		build = append(build, rg.buildS)
		newDrv = append(newDrv, rg.newDriverS)
		start = append(start, rg.startS)
		setup = append(setup, rg.buildS+rg.newDriverS+rg.startS)
		if i >= max(c.Setups, cities)-cities {
			runtime.GC() // collect the discarded set-ups before anything is measured
			if err := run.simulate(rg, span); err != nil {
				return nil, err
			}
		}
	}

	o := newOutcome()
	o.attempted = run.telemetry
	o.failed = run.failed
	o.gate(run.failed == 0, "%d settlement failures (dirty audit counts, misrouted handovers, work in flight after Drain): audits %+v",
		run.failed, run.audits)
	for _, d := range run.digests[1:] {
		o.gate(d == run.digests[0], "cities of one seed disagree: digests %v", run.digests)
	}
	o.digest = run.digests[0]

	hostS := float64(run.hostNs) / 1e9
	o.printf("city: %d vehicles, %d shards x %d replicas; %d cities of %v: %d windows of 1s in %.3f host s (%.3f CPU s), %d events, %d telemetry, %d warnings delivered",
		c.Vehicles, c.Shards, cityReplicas, cities, span, run.windows, hostS, run.cpu.Seconds(), run.events, run.telemetry, run.delivered)
	o.printf("settlement of the last city: %+v clean=%v", run.audits[len(run.audits)-1], run.audits[len(run.audits)-1].Clean())
	o.printf("statistics digest over %v: %s", span, o.digest)
	o.printf("warn latency = host time of the window delivering the warning (n=%.0f): p50 %.3f ms p99 %.3f ms p99.9 %.3f ms",
		sum(run.warnW), weightedQuantile(run.warnMs, run.warnW, 0.5), weightedQuantile(run.warnMs, run.warnW, 0.99), weightedQuantile(run.warnMs, run.warnW, 0.999))
	o.printf("failed_frac %.6g (%d of %d); gen.late_ms n/a (virtual clock)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)

	o.e2e.set("setup_s", median(setup))
	o.e2e.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)))
	o.e2e.set("warn_p50_ms", weightedQuantile(run.warnMs, run.warnW, 0.5))
	o.e2e.set("warn_p99_ms", weightedQuantile(run.warnMs, run.warnW, 0.99))
	o.e2e.set("cpu_us_per_record", run.blk.cpuPerWork(0.5)*1e6)
	o.e2e.set("catchup_rps", run.blk.rate(0.5))
	o.e2e.set("realtime_x", run.blk.realtime(0.5))
	o.e2e.set("live_heap_mb", liveHeapMB()) // the last city is still live
	runtime.KeepAlive(rg)
	if traced {
		l := o.layer
		l.set("city.advance_ms_p50", quantile(run.advanceMs, 0.5))
		l.set("city.advance_ms_p99", quantile(run.advanceMs, 0.99))
		l.set("city.events_per_window", ratio(float64(run.events), float64(run.windows)))
		l.set("city.ns_per_event", ratio(float64(run.hostNs), float64(run.events)))
		l.set("stream.router_produce_us", run.router.produce.mean(1e3))
		l.set("stream.router_produces", float64(run.router.produce.n.Load()))
		l.set("geo.build_network_s", median(build))
		l.set("city.new_driver_s", median(newDrv))
		l.set("city.start_s", median(start))
		l.set("go.alloc_bytes_per_event", ratio(run.mem.allocBytes, float64(run.events)))
		l.set("go.alloc_bytes_per_record", ratio(run.mem.allocBytes, float64(run.telemetry)))
		l.set("go.gc_cycles", run.mem.gcCycles)
		l.set("go.gc_pause_ms", run.mem.gcPauseMs)
		setShares(l, run.prof)
	}
	return o, nil
}

// simulate advances one set-up city through span in 1 s windows, then
// drains and audits it.
func (run *cityRun) simulate(rg *cityRig, span time.Duration) error {
	var prof *cpuProfile
	if run.traced {
		var wrapErr error
		err := rg.drv.RewireRouter(func(_ string, cl stream.Client) stream.Client {
			w, err := traceClient(cl, &run.router)
			if err != nil {
				wrapErr = err
				return cl
			}
			return w
		})
		if err == nil {
			err = wrapErr
		}
		if err != nil {
			return fmt.Errorf("rewire router: %w", err)
		}
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}

	const window = time.Second
	var events int64
	tel0 := rg.counter("city.telemetry")
	mem0, cpu0 := readMem(), cpuTime()
	blkCPU, blkTel := cpu0, tel0
	for virtual := time.Duration(0); virtual < span; virtual += window {
		warned := rg.counter("city.warnings_delivered")
		t := nowNs()
		n, err := rg.drv.Advance(window)
		d := nowNs() - t
		if err != nil {
			return fmt.Errorf("advance: %w", err)
		}
		run.hostNs += d
		events += int64(n)
		run.windows++
		run.advanceMs = append(run.advanceMs, float64(d)/1e6)
		if w := rg.counter("city.warnings_delivered") - warned; w > 0 {
			run.warnMs = append(run.warnMs, float64(d)/1e6)
			run.warnW = append(run.warnW, float64(w))
		}
		run.blk.add(0, float64(d)/1e9, 0, window.Seconds())
		if (virtual+window)%time.Minute == 0 || virtual+window >= span {
			c, tel := cpuTime(), rg.counter("city.telemetry")
			run.blk.add(float64(tel-blkTel), 0, (c - blkCPU).Seconds(), 0)
			run.blk.cut()
			blkCPU, blkTel = c, tel
		}
	}
	run.digests = append(run.digests, cityDigest(rg, events))
	run.events += events
	run.cpu += cpuTime() - cpu0
	run.mem.add(mem0.to(readMem()))
	run.telemetry += rg.counter("city.telemetry") - tel0
	run.delivered += rg.counter("city.warnings_delivered")
	if prof != nil {
		times, err := prof.stop()
		if err != nil {
			return err
		}
		for k, v := range times {
			run.prof[k] += v
		}
	}

	rg.drv.Drain()
	a := rg.drv.Audit()
	inFlight := int64(rg.drv.InFlight())
	misrouted := rg.counter("city.handover_misrouted")
	run.audits = append(run.audits, a)
	run.failed += a.TelemetryUnacked + a.WarningsLost + a.WarningsDup + a.FalseWarnings + a.HandoverLost + misrouted + inFlight
	return nil
}

// cityDigest hashes the simulated statistics: identical for every run of
// the same seed and configuration, traced or not.
func cityDigest(rg *cityRig, events int64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "events=%d", events)
	for _, name := range cityDigestCounters {
		fmt.Fprintf(h, " %s=%d", name, rg.counter(name))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
