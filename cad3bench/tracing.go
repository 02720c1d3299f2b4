package main

// Tracing for the per-layer (--trace 1) run. Every span is taken from
// this package, around calls into a layer's public API: decorators wrap
// core.Detector and stream.Client, and the workloads time the calls they
// make themselves (Step, HandoverVia, Flush, PollInto, Advance). The
// program under test is not modified. The decorators preserve the
// optional interfaces the wrapped value implements, because the code
// under test type-asserts for them: the RSU node checks a detector for
// Weight and PredictProba, and producers check clients for BatchClient
// and AckClient.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cad3/internal/core"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// epoch anchors the monotonic span clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// timer sums durations from several goroutines.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) add(ns int64) {
	t.n.Add(1)
	t.ns.Add(ns)
}

// mean returns the mean duration in the given unit (1 = ns, 1e3 = µs).
func (t *timer) mean(unit float64) float64 {
	n := t.n.Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(n) / unit
}

// span is one child interval inside an rsu.Node.Step call.
type span struct{ start, end int64 }

// spanLog collects the child spans of the Step in progress, so the
// step's self time (its duration minus the union of its children) can be
// computed. Children run on the engine's worker goroutines, so slots are
// claimed with an atomic counter; the log is sized for a full batch.
type spanLog struct {
	open    atomic.Bool
	n       atomic.Int64
	dropped atomic.Int64
	buf     []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) record(start, end int64) {
	if l == nil || !l.open.Load() {
		return
	}
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = span{start, end}
}

func (l *spanLog) begin() {
	l.n.Store(0)
	l.open.Store(true)
}

// end closes the step and returns the time its children covered.
func (l *spanLog) end() int64 {
	l.open.Store(false)
	n := l.n.Load()
	if n > int64(len(l.buf)) {
		n = int64(len(l.buf))
	}
	spans := l.buf[:n]
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var covered, curStart, curEnd int64
	for i, s := range spans {
		if i == 0 || s.start > curEnd {
			covered += curEnd - curStart
			curStart, curEnd = s.start, s.end
		} else if s.end > curEnd {
			curEnd = s.end
		}
	}
	return covered + curEnd - curStart
}

// detectTracer times the detector's public calls.
type detectTracer struct {
	detect, proba timer
	spans         *spanLog
}

type tracedDetector struct {
	inner core.Detector
	t     *detectTracer
}

func (d *tracedDetector) Name() string { return d.inner.Name() }

func (d *tracedDetector) Detect(rec trace.Record, prior *core.PredictionSummary) (core.Detection, error) {
	s := nowNs()
	det, err := d.inner.Detect(rec, prior)
	e := nowNs()
	d.t.detect.add(e - s)
	d.t.spans.record(s, e)
	return det, err
}

type weighted interface{ Weight() float64 }
type probaSource interface {
	PredictProba(rec trace.Record) (float64, error)
}

type tracedWeightDetector struct {
	*tracedDetector
	w weighted
}

func (d tracedWeightDetector) Weight() float64 { return d.w.Weight() }

type tracedProbaDetector struct {
	*tracedDetector
	p probaSource
}

func (d tracedProbaDetector) PredictProba(rec trace.Record) (float64, error) {
	s := nowNs()
	p, err := d.p.PredictProba(rec)
	e := nowNs()
	d.t.proba.add(e - s)
	d.t.spans.record(s, e)
	return p, err
}

type tracedWeightProbaDetector struct {
	tracedProbaDetector
	w weighted
}

func (d tracedWeightProbaDetector) Weight() float64 { return d.w.Weight() }

// traceDetector wraps inner so that it offers exactly the optional
// methods inner offers.
func traceDetector(inner core.Detector, t *detectTracer) core.Detector {
	base := &tracedDetector{inner: inner, t: t}
	w, hasW := inner.(weighted)
	p, hasP := inner.(probaSource)
	switch {
	case hasW && hasP:
		return tracedWeightProbaDetector{tracedProbaDetector{base, p}, w}
	case hasW:
		return tracedWeightDetector{base, w}
	case hasP:
		return tracedProbaDetector{base, p}
	}
	return base
}

// clientTracer times a broker client's produce and fetch calls.
type clientTracer struct {
	produce, fetch timer
	fetchMsgs      atomic.Int64
	spans          *spanLog
}

func (t *clientTracer) produced(s int64) {
	e := nowNs()
	t.produce.add(e - s)
	t.spans.record(s, e)
}

type tracedClient struct {
	stream.Client
	t *clientTracer
}

func (c *tracedClient) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	s := nowNs()
	p, off, err := c.Client.Produce(topic, partition, key, value)
	c.t.produced(s)
	return p, off, err
}

func (c *tracedClient) Fetch(topic string, partition int32, offset int64, max int) ([]stream.Message, error) {
	s := nowNs()
	msgs, err := c.Client.Fetch(topic, partition, offset, max)
	e := nowNs()
	c.t.fetch.add(e - s)
	c.t.fetchMsgs.Add(int64(len(msgs)))
	c.t.spans.record(s, e)
	return msgs, err
}

type tracedBatchClient struct {
	*tracedClient
	b stream.BatchClient
}

func (c tracedBatchClient) ProduceBatchInto(topic string, partition int32, recs []stream.BatchRecord, res []stream.BatchResult) error {
	s := nowNs()
	err := c.b.ProduceBatchInto(topic, partition, recs, res)
	c.t.produced(s)
	return err
}

type tracedAckClient struct {
	*tracedClient
	a stream.AckClient
}

func (c tracedAckClient) ProduceAcks(topic string, partition int32, key, value []byte, acks stream.AckLevel) (int32, int64, error) {
	s := nowNs()
	p, off, err := c.a.ProduceAcks(topic, partition, key, value, acks)
	c.t.produced(s)
	return p, off, err
}

type tracedAckBatchClient struct {
	tracedAckClient
	b stream.AckBatchClient
}

func (c tracedAckBatchClient) ProduceBatchInto(topic string, partition int32, recs []stream.BatchRecord, res []stream.BatchResult) error {
	return tracedBatchClient{c.tracedClient, c.b}.ProduceBatchInto(topic, partition, recs, res)
}

func (c tracedAckBatchClient) ProduceBatchAcksInto(topic string, partition int32, recs []stream.BatchRecord, res []stream.BatchResult, acks stream.AckLevel) error {
	s := nowNs()
	err := c.b.ProduceBatchAcksInto(topic, partition, recs, res, acks)
	c.t.produced(s)
	return err
}

// traceClient wraps inner so that it offers exactly the optional
// interfaces inner offers. It refuses a combination it has no wrapper
// for rather than silently hiding an interface.
func traceClient(inner stream.Client, t *clientTracer) (stream.Client, error) {
	base := &tracedClient{Client: inner, t: t}
	a, hasA := inner.(stream.AckClient)
	b, hasB := inner.(stream.BatchClient)
	ab, hasAB := inner.(stream.AckBatchClient)
	switch {
	case hasA && hasAB:
		return tracedAckBatchClient{tracedAckClient{base, a}, ab}, nil
	case hasA && !hasB:
		return tracedAckClient{base, a}, nil
	case hasB && !hasA && !hasAB:
		return tracedBatchClient{base, b}, nil
	case !hasA && !hasB:
		return base, nil
	}
	return nil, fmt.Errorf("trace: no wrapper for client %T", inner)
}
