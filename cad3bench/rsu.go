package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/microbatch"
	"cad3/internal/obsv"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// catchupMs is the span of traffic one rsu-catchup round preloads.
const catchupMs = 600

// rsuConfig sizes the two RSU workloads.
type rsuConfig struct {
	// Slots is the number of vehicles at the RSU at once, each reporting
	// at 10 Hz: 10,000 slots offer 100k records/s.
	Slots int
	// A run of rsu-catchup makes RoundsPerSecond rounds per second of
	// --seconds: a fixed amount of work, so every run of a seed checks the
	// same warnings.
	RoundsPerSecond int
	// Setups is how many times set-up is repeated; setup_s is the median.
	Setups int
}

// rig is the system under test for the RSU workloads: the cad3-rsu
// deployment (broker, TCP server, node with its default 50 ms batches and
// in-process client, detector trained as cad3-rsu trains it) plus the two
// TCP connections the load generator and the warning reader use.
type rig struct {
	sc      *experiments.Scenario
	server  *stream.Server
	node    *rsu.Node
	gen     *stream.TCPClient
	outConn *stream.TCPClient
	out     *stream.Consumer

	detect *detectTracer
	client *clientTracer
	spans  *spanLog
}

// newRig trains and starts one RSU. With traced set, the node's detector
// and broker client are wrapped in the span-recording decorators.
func newRig(traced bool) (*rig, error) {
	// cad3-rsu's defaults: -cars 300 -seed 1, motorway_link, collaborative.
	sc, err := experiments.BuildScenario(experiments.ScenarioConfig{Cars: 300, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	r := &rig{sc: sc}
	reg := obsv.NewRegistry()
	broker := stream.NewBroker(stream.BrokerConfig{Metrics: reg})
	if r.server, err = stream.NewServer(broker, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	var det core.Detector = sc.CAD3
	var client stream.Client = stream.NewInProcClient(broker)
	if traced {
		r.spans = newSpanLog(4*8192 + 1024)
		r.detect = &detectTracer{spans: r.spans}
		r.client = &clientTracer{spans: r.spans}
		det = traceDetector(det, r.detect)
		if client, err = traceClient(client, r.client); err != nil {
			r.close()
			return nil, err
		}
	}
	r.node, err = rsu.New(rsu.Config{
		Name:     "motorway_link",
		Road:     experiments.CorridorLinkID,
		Detector: det,
		Client:   client,
		Metrics:  reg,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if r.gen, err = stream.Dial(r.server.Addr()); err != nil {
		r.close()
		return nil, err
	}
	if r.outConn, err = stream.Dial(r.server.Addr()); err != nil {
		r.close()
		return nil, err
	}
	if r.out, err = stream.NewConsumer(r.outConn, stream.TopicOutData, 0); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	for _, c := range []*stream.TCPClient{r.gen, r.outConn} {
		if c != nil {
			_ = c.Close()
		}
	}
	if r.server != nil {
		_ = r.server.Close()
	}
}

// setupRig builds the rig n times and keeps the last one; setup_s is the
// median build time.
func setupRig(n int, traced bool) (*rig, float64, error) {
	var times []float64
	var r *rig
	for i := 0; i < n; i++ {
		if r != nil {
			r.close()
		}
		t := time.Now()
		var err error
		if r, err = newRig(traced); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	runtime.GC() // collect the discarded set-ups before anything is measured
	return r, median(times), nil
}

// stepStats accumulates what the traced run learns around each Step.
type stepStats struct {
	ms, selfMs []float64
	records    int64
	saturated  int64
	steps      int64
	cpu, wall  time.Duration
	backlogMax int64
}

// step runs one node.Step, timing it (and its children) when traced.
// backlog is the number of records waiting on the broker before the step.
func (r *rig) step(st *stepStats, backlog int64) (microbatch.BatchStats, error) {
	if r.spans == nil {
		return r.node.Step()
	}
	if backlog > st.backlogMax {
		st.backlogMax = backlog
	}
	cpu0 := cpuTime()
	r.spans.begin()
	t := nowNs()
	bs, err := r.node.Step()
	d := nowNs() - t
	covered := r.spans.end()
	st.cpu += cpuTime() - cpu0
	st.wall += time.Duration(d)
	st.steps++
	st.records += int64(bs.Records)
	if bs.Saturated {
		st.saturated++
	}
	st.ms = append(st.ms, float64(d)/1e6)
	st.selfMs = append(st.selfMs, float64(d-covered)/1e6)
	return bs, err
}

// layerMetrics reports the per-layer metrics every RSU workload shares.
// Call it after the measured part of the run: it may time the detector.
func (r *rig) layerMetrics(o *outcome, p *plan, s *sender, h *handovers, st *stepStats, records int64, mem memDelta) error {
	if n := r.spans.dropped.Load(); n > 0 {
		o.printf("trace: %d child spans overflowed the span log; rsu.step_self_ms is high", n)
	}
	m := o.layer
	m.set("core.encode_ns", s.encode.mean(1))
	m.set("stream.flush_us", s.flush.mean(1e3))
	m.set("stream.flush_records", ratio(float64(s.flushRecords), float64(s.flush.n.Load())))
	m.set("stream.fetch_us", r.client.fetch.mean(1e3))
	m.set("stream.fetch_msgs", ratio(float64(r.client.fetchMsgs.Load()), float64(r.client.fetch.n.Load())))
	m.set("stream.produce_us", r.client.produce.mean(1e3))
	m.set("detect.detect_ns", r.detect.detect.mean(1))
	proba := r.detect.proba.mean(1)
	if r.detect.proba.n.Load() == 0 {
		// CAD3 runs its local Naive Bayes inside Detect and has no
		// PredictProba, so the node never calls NB on its own.
		var err error
		if proba, err = timeLocalNB(r.sc.CAD3.LocalNB(), p); err != nil {
			return err
		}
	}
	m.set("detect.proba_ns", proba)
	m.set("detect.proba_calls", float64(r.detect.proba.n.Load()))
	m.set("rsu.step_ms_p50", quantile(st.ms, 0.50))
	m.set("rsu.step_ms_p99", quantile(st.ms, 0.99))
	m.set("rsu.step_self_ms", quantile(st.selfMs, 0.50))
	m.set("rsu.step_records", ratio(float64(st.records), float64(st.steps)))
	m.set("microbatch.cores", ratio(st.cpu.Seconds(), st.wall.Seconds()))
	m.set("rsu.handover_us", h.t.mean(1e3))
	m.set("rsu.saturated_frac", ratio(float64(st.saturated), float64(st.steps)))
	m.set("rsu.backlog_max", float64(st.backlogMax))
	ns := r.node.Stats()
	m.set("rsu.prior_hit_ratio", ratio(float64(ns.PriorHits), float64(ns.PriorHits+ns.PriorMisses)))
	m.set("go.alloc_bytes_per_record", ratio(mem.allocBytes, float64(records)))
	m.set("go.gc_cycles", mem.gcCycles)
	m.set("go.gc_pause_ms", mem.gcPauseMs)
	return nil
}

// timeLocalNB returns the mean duration in ns of one local Naive Bayes
// PredictProba call over the records of the plan's first second.
func timeLocalNB(nb *core.AD3, p *plan) (float64, error) {
	var recs []trace.Record
	p.forEach(0, 1000, func(car trace.CarID, seq, ms int64) { recs = append(recs, p.record(car, seq, ms)) })
	t := nowNs()
	for _, rec := range recs {
		if _, err := nb.PredictProba(rec); err != nil {
			return 0, fmt.Errorf("local NB: %w", err)
		}
	}
	return ratio(float64(nowNs()-t), float64(len(recs))), nil
}

// received tracks warnings read back from OUT-DATA.
type received struct {
	seen   map[warnKey]receipt
	got    atomic.Int64 // warnings read, duplicates included
	bad    int64
	msgs   []stream.Message
	lat    []float64
	poll   timer // PollInto calls, when traced
	traced bool
}

type receipt struct {
	n     int32
	latMs float64
}

func newReceived(traced bool) *received {
	return &received{seen: make(map[warnKey]receipt), traced: traced}
}

// drain reads OUT-DATA until it is empty; lat gives each warning's
// latency in ms.
func (rc *received) drain(c *stream.Consumer, lat func(w core.Warning) float64) error {
	for {
		var err error
		t := nowNs()
		rc.msgs, err = c.PollInto(rc.msgs[:0], 4096)
		if rc.traced {
			rc.poll.add(nowNs() - t)
		}
		for _, m := range rc.msgs {
			w, derr := core.DecodeWarning(m.Value)
			if derr != nil {
				rc.bad++
				continue
			}
			rc.got.Add(1)
			k := warnKey{w.Car, w.SourceTsMs}
			if got, ok := rc.seen[k]; ok {
				got.n++
				rc.seen[k] = got
				continue
			}
			rc.seen[k] = receipt{n: 1, latMs: lat(w)}
		}
		stream.RecycleMessages(rc.msgs)
		if err != nil || len(rc.msgs) == 0 {
			return err
		}
	}
}

// verdict compares what came back against the offline reference.
type verdict struct {
	expected, missing, unexpected, dup, malformed int64
	// latencies holds one value per expected warning, in ms; a missing
	// warning counts as missingMs, which is over any latency limit.
	latencies []float64
}

func (v verdict) failures() int64 { return v.missing + v.unexpected + v.dup + v.malformed }

// check compares the warnings read so far with exp, then forgets them.
// The verdict's latencies reuse one buffer: they are valid until the
// next check.
func (rc *received) check(exp expectation, missingMs float64) verdict {
	v := verdict{expected: int64(len(exp.warnings)), malformed: rc.bad, latencies: rc.lat[:0]}
	for k := range exp.warnings {
		if got, ok := rc.seen[k]; ok {
			v.latencies = append(v.latencies, got.latMs)
		} else {
			v.missing++
			v.latencies = append(v.latencies, missingMs)
		}
	}
	for k, got := range rc.seen {
		if _, ok := exp.warnings[k]; !ok {
			v.unexpected++
		}
		v.dup += int64(got.n - 1)
	}
	clear(rc.seen)
	rc.bad = 0
	rc.lat = v.latencies
	return v
}
