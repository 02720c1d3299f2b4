package main

import (
	"fmt"
	"time"

	"cad3/internal/core"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// runCatchup is rsu-catchup: a closed loop of rounds. Each round preloads
// catchupMs of the plan's traffic (telemetry plus the arriving cars'
// summaries) over TCP, as an outage would leave it on the broker, then
// calls node.Step back to back until the node has drained it. Only the
// drain is timed.
func runCatchup(cfg config, seed int64, traced bool) (*outcome, error) {
	r, setupS, err := setupRig(cfg.RSU.Setups, traced)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p := newPlan(seed, cfg.RSU.Slots, r.sc)
	snd, err := newSender(r.gen, traced)
	if err != nil {
		return nil, err
	}
	ho := newHandovers(r.node, traced)
	rc := newReceived(traced)
	// A round's backlog must fit the broker's retention, or records are
	// evicted unread (and counted as failures below). A partition log that
	// outgrows its 65,536 messages drops its older half, so only the newest
	// 32,768 per partition are sure to survive; keep a margin for uneven
	// partitioning on top.
	backlog := int64(cfg.RSU.Slots) * catchupMs / p.periodMs
	if safe := int64(stream.DefaultPartitions * 65536 / 2 * 3 / 4); backlog > safe {
		return nil, fmt.Errorf("catch-up backlog of %d records exceeds the %d the broker surely retains", backlog, safe)
	}

	var prof *cpuProfile
	if traced {
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	if traced {
		asLoad()
		defer asSystem()
	}
	o := newOutcome()
	var st stepStats
	var ingest, p50, p99, p999 []float64
	var drainTime, drainCPU time.Duration
	var blk blocks
	var warnings int64
	expected := make(map[warnKey]struct{})
	var drained int64
	var verdicts verdict
	var exp expectation
	var mem memDelta
	digest := newDigest()
	baseMs := time.Now().UnixMilli()
	start := time.Now()
	rounds := max(1, int64(cfg.Seconds.Seconds()*float64(cfg.RSU.RoundsPerSecond)))
	// The first tenth of the rounds fill the broker's logs and the node's
	// state; they are drained and checked like the others, but the
	// per-round statistics leave them out, as they run faster.
	warmup := rounds / 10
	for round := int64(0); round < rounds; round++ {
		lo, hi := round*catchupMs, (round+1)*catchupMs

		// Preload: summaries first, then telemetry.
		pt := time.Now()
		nowMs := pt.UnixMilli()
		var genErr error
		p.arrivals(lo, hi, func(car trace.CarID, _ int64) {
			if p.hasPrior(car) && genErr == nil {
				genErr = snd.summary(p.prior(car, nowMs))
			}
		})
		if err := snd.flushAll(); err != nil {
			return nil, err
		}
		sent0 := snd.sent.Load()
		p.forEach(lo, hi, func(car trace.CarID, seq, ms int64) {
			if genErr == nil {
				genErr = snd.record(p.record(car, seq, baseMs+ms))
			}
		})
		if err := snd.flushAll(); err != nil {
			return nil, err
		}
		if genErr != nil {
			return nil, fmt.Errorf("preload: %w", genErr)
		}
		n := snd.sent.Load() - sent0
		ingest = append(ingest, ratio(float64(n), time.Since(pt).Seconds()))

		// Drain, back to back. A step that finds nothing while records are
		// still owed means the broker lost them.
		if traced {
			asSystem()
		}
		mem0, cpu0 := readMem(), cpuTime()
		t := time.Now()
		drainStartMs := float64(t.UnixNano()) / 1e6
		target := r.node.Stats().Records + n
		for done := r.node.Stats().Records; done < target; {
			bs, err := r.step(&st, target-done)
			if err != nil {
				return nil, fmt.Errorf("node step: %w", err)
			}
			if bs.Records == 0 {
				break
			}
			done += int64(bs.Records)
		}
		d := time.Since(t)
		c := cpuTime() - cpu0
		mem.add(mem0.to(readMem()))
		if traced {
			asLoad()
		}
		got := r.node.Stats().Records - (target - n)
		drained += got
		drainTime += d
		drainCPU += c
		if round >= warmup {
			blk.add(float64(got), d.Seconds(), c.Seconds(), float64(hi-lo)/1e3)
			blk.cut()
		}

		// Untimed: forward the departed cars' summaries, read the
		// warnings back and check them against the reference.
		var hoErr error
		p.departures(lo, hi, func(car trace.CarID) {
			if err := ho.handover(car); err != nil && hoErr == nil {
				hoErr = err
			}
		})
		if hoErr != nil {
			return nil, hoErr
		}
		err := rc.drain(r.out, func(w core.Warning) float64 {
			return max(0, float64(w.DetectedTsMs)-drainStartMs)
		})
		if err != nil {
			return nil, fmt.Errorf("warning reader: %w", err)
		}
		e, err := p.expect(r.sc.CAD3, lo, hi, baseMs, expected)
		if err != nil {
			return nil, err
		}
		v := rc.check(e, float64(time.Since(start).Milliseconds()))
		if round >= warmup {
			warnings += int64(len(v.latencies))
			p50 = append(p50, quantile(v.latencies, 0.5))
			p99 = append(p99, quantile(v.latencies, 0.99))
			p999 = append(p999, quantile(v.latencies, 0.999))
		}
		digest.add(e, baseMs)
		verdicts.expected += v.expected
		verdicts.missing += v.missing
		verdicts.unexpected += v.unexpected
		verdicts.dup += v.dup
		verdicts.malformed += v.malformed
		exp.records += e.records
		exp.priorHits += e.priorHits
		exp.detectErrs += e.detectErrs
	}
	var shares map[string]int64
	if prof != nil {
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	// Forward the summaries of the cars still at the RSU.
	tail := map[trace.CarID]bool{}
	end := rounds * catchupMs
	p.forEach(max(0, end-p.periodMs), end, func(car trace.CarID, _, _ int64) { tail[car] = true })
	for _, car := range sortedCars(tail) {
		if err := ho.handover(car); err != nil {
			return nil, err
		}
	}

	ns := r.node.Stats()
	o.attempted = exp.records
	unprocessed := max(0, exp.records-ns.Records)
	unfolded := abs(ns.Records - ho.folded)
	priorDiff := abs(ns.PriorHits - exp.priorHits)
	o.failed = snd.refused.Load() + unprocessed + verdicts.failures() + ho.bad + unfolded + priorDiff + ns.DetectErrors + exp.detectErrs
	o.gate(snd.refused.Load() == 0, "%d records or summaries refused by the broker", snd.refused.Load())
	o.gate(unprocessed == 0, "%d records never processed (lost to retention or never fetched)", unprocessed)
	o.gate(verdicts.failures() == 0, "warnings: %d missing, %d duplicate, %d unexpected, %d malformed (of %d expected)",
		verdicts.missing, verdicts.dup, verdicts.unexpected, verdicts.malformed, verdicts.expected)
	o.gate(priorDiff == 0, "node found %d priors, reference %d", ns.PriorHits, exp.priorHits)
	o.gate(unfolded == 0 && ho.bad == 0, "handover summaries fold %d records of %d processed (%d malformed)", ho.folded, ns.Records, ho.bad)
	o.gate(ns.DetectErrors == 0 && exp.detectErrs == 0, "detect errors: node %d, reference %d", ns.DetectErrors, exp.detectErrs)
	o.digest = digest.sum(ns.Records, ho.folded)

	o.printf("rsu-catchup: %d rounds of %d records (%d ms of traffic), the first %d unmeasured; %d drained, %d handovers, %d expected warnings",
		rounds, exp.records/rounds, catchupMs, warmup, drained, ho.calls, verdicts.expected)
	o.printf("time to warn after drain start (n=%d), faster quarter of rounds: p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms",
		warnings, quantile(p50, fastQuarter), quantile(p99, fastQuarter), quantile(p999, fastQuarter))
	o.printf("time to warn after drain start, median round: p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms",
		median(p50), median(p99), median(p999))
	o.printf("drained %d records in %.3f s (%.3f CPU s); median round %.0f records/s at %.4g us CPU/record; gen.late_ms n/a (closed loop)",
		drained, drainTime.Seconds(), drainCPU.Seconds(), blk.rate(0.5), blk.cpuPerWork(0.5)*1e6)
	o.printf("failed_frac %.6g (%d of %d)  digest %s", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted, o.digest)

	o.e2e.set("setup_s", setupS)
	o.e2e.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)))
	o.e2e.set("warn_p50_ms", quantile(p50, fastQuarter))
	o.e2e.set("warn_p99_ms", quantile(p99, fastQuarter))
	o.e2e.set("cpu_us_per_record", blk.cpuPerWork(fastQuarter)*1e6)
	o.e2e.set("catchup_rps", blk.rate(fastQuarter))
	o.e2e.set("realtime_x", blk.realtime(fastQuarter))
	o.e2e.set("live_heap_mb", liveHeapMB())
	if traced {
		if err := r.layerMetrics(o, p, snd, ho, &st, drained, mem); err != nil {
			return nil, err
		}
		o.layer.set("stream.ingest_rps", median(ingest))
		o.layer.set("stream.poll_us", rc.poll.mean(1e3))
		setShares(o.layer, shares)
	}
	return o, nil
}
