package main

// The traffic both RSU workloads replay. Everything here is a pure
// function of the seed and the trained scenario, so the offline reference
// can regenerate any record the generator sent.

import (
	"sort"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/trace"
)

// summaryLeadMs is how far ahead of a visit's first record its forwarded
// summary is sent: two 50 ms batches, so the node has drained CO-DATA
// before the vehicle's first telemetry arrives.
const summaryLeadMs = 100

// plan lays out an RSU's traffic on a millisecond grid. Slot i is one
// vehicle position at the RSU, reporting every periodMs at phase
// i%periodMs; it hosts a sequence of visits of visitLen records, each by
// a new car. Visit boundaries are staggered across slots so churn is
// spread evenly. Half the cars (by a hash of the seed and car) arrive
// with a forwarded CO-DATA summary, and each record copies a real
// motorway-link record of the scenario's test split, which all carry
// RoadMeanSpeed: detection is a pure function of (record, prior).
type plan struct {
	seed      uint64
	slots     int64
	periodMs  int64
	visitLen  int64
	templates []trace.Record
	priors    []core.PredictionSummary
}

func newPlan(seed int64, slots int, sc *experiments.Scenario) *plan {
	priors := make([]core.PredictionSummary, 0, len(sc.Summaries))
	for _, s := range sc.Summaries {
		priors = append(priors, s)
	}
	sort.Slice(priors, func(i, j int) bool { return priors[i].Car < priors[j].Car })
	return &plan{
		seed:      uint64(seed),
		slots:     int64(slots),
		periodMs:  100,
		visitLen:  40,
		templates: sc.TestLink,
		priors:    priors,
	}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p *plan) stagger(slot int64) int64 { return (slot / p.periodMs) % p.visitLen }

// at returns the slot's k-th report: its car and the record's sequence
// number within the car's visit.
func (p *plan) at(slot, k int64) (car trace.CarID, seq int64) {
	j := k + p.stagger(slot)
	return trace.CarID(j/p.visitLen*p.slots + slot + 1), j % p.visitLen
}

func (p *plan) hasPrior(car trace.CarID) bool { return mix(p.seed^uint64(car))&1 == 0 }

// prior is the summary the car's previous RSU forwards, as the node will
// decode it (the wire round trip is part of the reference).
func (p *plan) prior(car trace.CarID, nowMs int64) core.PredictionSummary {
	s := p.priors[mix(p.seed^uint64(car)^0xabcdef)%uint64(len(p.priors))]
	s.Car, s.UpdatedMs = car, nowMs
	return s
}

// record builds the car's seq-th record, stamped tsMs.
func (p *plan) record(car trace.CarID, seq, tsMs int64) trace.Record {
	r := p.templates[mix(p.seed^uint64(car)<<8^uint64(seq))%uint64(len(p.templates))]
	r.Car, r.TimestampMs, r.Road = car, tsMs, experiments.CorridorLinkID
	return r
}

// forEach calls fn for every record due at offsets [lo, hi) ms, in
// send order.
func (p *plan) forEach(lo, hi int64, fn func(car trace.CarID, seq, ms int64)) {
	for ms := lo; ms < hi; ms++ {
		k := ms / p.periodMs
		for slot := ms % p.periodMs; slot < p.slots; slot += p.periodMs {
			car, seq := p.at(slot, k)
			fn(car, seq, ms)
		}
	}
}

// arrivals calls fn for every car whose first record is due at an offset
// in [lo, hi), with that offset.
func (p *plan) arrivals(lo, hi int64, fn func(car trace.CarID, ms int64)) {
	p.forEach(lo, hi, func(car trace.CarID, seq, ms int64) {
		if seq == 0 || ms < p.periodMs { // ms < period: the slot's first, partial visit
			fn(car, ms)
		}
	})
}

// departures calls fn for every car whose last record is due at an offset
// in [lo, hi).
func (p *plan) departures(lo, hi int64, fn func(car trace.CarID)) {
	p.forEach(lo, hi, func(car trace.CarID, seq, _ int64) {
		if seq == p.visitLen-1 {
			fn(car)
		}
	})
}

// expectation is the offline reference for a span of the plan.
type expectation struct {
	records    int64
	priorHits  int64
	warnings   map[warnKey]struct{}
	detectErrs int64
}

type warnKey struct {
	car  trace.CarID
	tsMs int64
}

// expect runs det directly on every record due in [lo, hi) with the prior
// the plan gives its car. The expected warnings are collected into
// warnings, which is cleared first.
func (p *plan) expect(det core.Detector, lo, hi, baseMs int64, warnings map[warnKey]struct{}) (expectation, error) {
	clear(warnings)
	e := expectation{warnings: warnings}
	var firstErr error
	p.forEach(lo, hi, func(car trace.CarID, seq, ms int64) {
		rec := p.record(car, seq, baseMs+ms)
		var prior *core.PredictionSummary
		if p.hasPrior(car) {
			s, err := roundTrip(p.prior(car, 0))
			if err != nil && firstErr == nil {
				firstErr = err
			}
			prior = &s
			e.priorHits++
		}
		e.records++
		d, err := det.Detect(rec, prior)
		if err != nil {
			e.detectErrs++
			return
		}
		if d.Abnormal() {
			e.warnings[warnKey{car, rec.TimestampMs}] = struct{}{}
		}
	})
	return e, firstErr
}

func roundTrip(s core.PredictionSummary) (core.PredictionSummary, error) {
	b, err := core.EncodeSummary(s)
	if err != nil {
		return s, err
	}
	return core.DecodeSummary(b)
}
