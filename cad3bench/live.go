package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cad3/internal/core"
	"cad3/internal/microbatch"
	"cad3/internal/trace"
)

const (
	// warnLimitMs is the warning latency limit: one 10 Hz reporting
	// period, after which the next record supersedes the warned one.
	warnLimitMs = 100
	// handoverGraceMs is how long after a car's last record the node
	// forwards its summary: ten batches, so the record has been processed.
	handoverGraceMs = 500
	// pollEvery is the warning reader's OUT-DATA polling period.
	pollEvery = 10 * time.Millisecond
	// drainTimeout bounds the wait for the node to finish the offered
	// load after the generator stops.
	drainTimeout = 10 * time.Second
)

// runLive is rsu-live: an open loop offering Slots×10 records/s for
// cfg.Seconds to a node stepping every 50 ms, with a reader polling the
// warnings every 10 ms.
func runLive(cfg config, seed int64, traced bool) (*outcome, error) {
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
	endMs := cfg.Seconds.Milliseconds()

	var prof *cpuProfile
	if traced {
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	mem0, cpu0 := readMem(), cpuTime()
	// Offset 0 of the schedule is t0; the summaries of the first visits
	// are due summaryLeadMs before it.
	t0 := time.Now().Add((summaryLeadMs + 20) * time.Millisecond)
	baseMs := t0.UnixMilli()
	sinceMs := func() float64 { return float64(time.Since(t0)) / 1e6 }

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var st stepStats
	var stepErr, pollErr error
	wg.Add(2)
	go func() { // the node, stepped as rsu.Node.Run steps it
		defer wg.Done()
		tick := time.NewTicker(microbatch.DefaultInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				var backlog int64
				if traced {
					backlog = snd.sent.Load() - r.node.Stats().Records
				}
				if _, err := r.step(&st, backlog); err != nil && stepErr == nil {
					stepErr = err
				}
			}
		}
	}()
	go func() { // the vehicles' warning reader
		defer wg.Done()
		if traced {
			asLoad()
		}
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				err := rc.drain(r.out, func(w core.Warning) float64 {
					return sinceMs() - float64(w.SourceTsMs-baseMs)
				})
				if err != nil && pollErr == nil {
					pollErr = err
				}
			}
		}
	}()
	stop := func() {
		cancel()
		wg.Wait()
	}

	// The generator: every millisecond bucket of the schedule is sent once
	// it is due, however late, so a stall delays the records behind it.
	var late []float64
	var blk blocks // one block per second of the schedule, for CPU per record
	blkCPU, blkSent := cpuTime(), int64(0)
	var genErr error
	fail := func(err error) {
		if err != nil && genErr == nil {
			genErr = err
		}
	}
	if traced {
		asLoad()
		defer asSystem()
	}
	sendStart := time.Now()
	for o := int64(-summaryLeadMs); o < endMs; {
		if wait := time.Until(t0.Add(time.Duration(o) * time.Millisecond)); wait > 0 {
			time.Sleep(wait)
			continue
		}
		due := int64(sinceMs())
		nowMs := time.Now().UnixMilli()
		for ; o <= due && o < endMs; o++ {
			late = append(late, sinceMs()-float64(o))
			if o > 0 && o%1000 == 0 {
				c, sent := cpuTime(), snd.sent.Load()
				blk.add(float64(sent-blkSent), 0, (c - blkCPU).Seconds(), 0)
				blk.cut()
				blkCPU, blkSent = c, sent
			}
			if a := o + summaryLeadMs; a < endMs {
				p.arrivals(a, a+1, func(car trace.CarID, _ int64) {
					if p.hasPrior(car) {
						fail(snd.summary(p.prior(car, nowMs)))
					}
				})
			}
			if o >= 0 {
				p.forEach(o, o+1, func(car trace.CarID, seq, ms int64) {
					fail(snd.record(p.record(car, seq, baseMs+ms)))
				})
			}
			if d := o - handoverGraceMs; d >= 0 {
				p.departures(d, d+1, func(car trace.CarID) { fail(ho.handover(car)) })
			}
		}
		fail(snd.flushAll())
	}
	sendSecs := time.Since(sendStart).Seconds()
	blk.add(float64(snd.sent.Load()-blkSent), 0, (cpuTime() - blkCPU).Seconds(), 0)
	blk.cut()

	// Let the node finish the offered load and the reader catch up.
	deadline := time.Now().Add(drainTimeout)
	for r.node.Stats().Records < snd.sent.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for rc.got.Load() < r.node.Stats().Warnings && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	windowMs := sinceMs()
	cpu := cpuTime() - cpu0
	mem := mem0.to(readMem())
	stop()
	var shares map[string]int64
	if prof != nil {
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	if genErr != nil {
		return nil, fmt.Errorf("generator: %w", genErr)
	}
	if stepErr != nil {
		return nil, fmt.Errorf("node step: %w", stepErr)
	}
	if pollErr != nil {
		return nil, fmt.Errorf("warning reader: %w", pollErr)
	}
	// Forward the summaries of the cars still at the RSU, or that left
	// inside the last grace period.
	tail := map[trace.CarID]bool{}
	p.forEach(max(0, endMs-handoverGraceMs-1), endMs, func(car trace.CarID, _, _ int64) { tail[car] = true })
	for _, car := range sortedCars(tail) {
		if err := ho.handover(car); err != nil {
			return nil, err
		}
	}

	exp, err := p.expect(r.sc.CAD3, 0, endMs, baseMs, make(map[warnKey]struct{}))
	if err != nil {
		return nil, err
	}
	v := rc.check(exp, windowMs)
	ns := r.node.Stats()
	o := newOutcome()
	o.attempted = exp.records
	unprocessed := max(0, exp.records-ns.Records)
	unfolded := abs(ns.Records - ho.folded)
	priorDiff := abs(ns.PriorHits - exp.priorHits)
	o.failed = snd.refused.Load() + unprocessed + v.failures() + ho.bad + unfolded + priorDiff + ns.DetectErrors + exp.detectErrs
	o.gate(exp.records == snd.sent.Load()+snd.refused.Load(), "generator sent %d of %d records", snd.sent.Load(), exp.records)
	o.gate(snd.refused.Load() == 0, "%d records or summaries refused by the broker", snd.refused.Load())
	o.gate(unprocessed == 0, "%d records never processed", unprocessed)
	o.gate(v.failures() == 0, "warnings: %d missing, %d duplicate, %d unexpected, %d malformed (of %d expected)",
		v.missing, v.dup, v.unexpected, v.malformed, v.expected)
	o.gate(priorDiff == 0, "node found %d priors, reference %d", ns.PriorHits, exp.priorHits)
	o.gate(unfolded == 0 && ho.bad == 0, "handover summaries fold %d records of %d processed (%d malformed)", ho.folded, ns.Records, ho.bad)
	o.gate(ns.DetectErrors == 0 && exp.detectErrs == 0, "detect errors: node %d, reference %d", ns.DetectErrors, exp.detectErrs)
	o.digest = warnDigest(exp, baseMs, ns.Records, ho.folded)

	over := 0
	for _, l := range v.latencies {
		if l > warnLimitMs {
			over++
		}
	}
	p99 := quantile(v.latencies, 0.99)
	o.gate(p99 <= warnLimitMs, "warning latency p99 %.3f ms is over the %d ms limit (%d of %d warnings over)",
		p99, warnLimitMs, over, len(v.latencies))
	o.printf("rsu-live: %d records offered at %d/s, %d processed, %d summaries, %d handovers, %d expected warnings",
		exp.records, cfg.RSU.Slots*10, ns.Records, snd.summariesSent, ho.calls, v.expected)
	o.printf("warn latency (n=%d): p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms  over %d ms: %d",
		len(v.latencies), quantile(v.latencies, 0.5), p99, quantile(v.latencies, 0.999), warnLimitMs, over)
	o.printf("gen.late_ms p99 %.3f max %.3f; process CPU %.3f s over %.3f s", quantile(late, 0.99), quantile(late, 1), cpu.Seconds(), windowMs/1e3)
	o.printf("failed_frac %.6g (%d of %d)  digest %s", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted, o.digest)

	procSecs := windowMs / 1e3
	o.e2e.set("setup_s", setupS)
	o.e2e.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)))
	o.e2e.set("warn_p50_ms", quantile(v.latencies, 0.5))
	o.e2e.set("warn_p99_ms", p99)
	o.e2e.set("cpu_us_per_record", blk.cpuPerWork(0.5)*1e6)
	o.e2e.set("catchup_rps", ratio(float64(ns.Records), procSecs))
	o.e2e.set("realtime_x", ratio(float64(endMs)/1e3, procSecs))
	o.e2e.set("live_heap_mb", liveHeapMB())
	if traced {
		if err := r.layerMetrics(o, p, snd, ho, &st, ns.Records, mem); err != nil {
			return nil, err
		}
		o.layer.set("stream.ingest_rps", ratio(float64(snd.sent.Load()), sendSecs))
		o.layer.set("stream.poll_us", rc.poll.mean(1e3))
		o.layer.set("gen.late_ms", quantile(late, 0.99))
		setShares(o.layer, shares)
	}
	return o, nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func sortedCars(set map[trace.CarID]bool) []trace.CarID {
	cars := make([]trace.CarID, 0, len(set))
	for c := range set {
		cars = append(cars, c)
	}
	sortCars(cars)
	return cars
}
