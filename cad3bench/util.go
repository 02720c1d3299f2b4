package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"cad3/internal/trace"
)

// digest hashes an RSU run's correctness outputs: the expected warning
// set (which the gates prove equal to the received one), relative to the
// schedule's base timestamp so that runs at different wall times agree.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(e expectation, baseMs int64) {
	keys := make([]warnKey, 0, len(e.warnings))
	for k := range e.warnings {
		keys = append(keys, warnKey{k.car, k.tsMs - baseMs})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].car != keys[j].car {
			return keys[i].car < keys[j].car
		}
		return keys[i].tsMs < keys[j].tsMs
	})
	fmt.Fprintf(d.h, "records=%d priors=%d warnings=%d;", e.records, e.priorHits, len(keys))
	for _, k := range keys {
		fmt.Fprintf(d.h, "%d@%d;", k.car, k.tsMs)
	}
}

func (d *digest) sum(processed, folded int64) string {
	fmt.Fprintf(d.h, "processed=%d folded=%d", processed, folded)
	return fmt.Sprintf("%016x", d.h.Sum64())
}

func warnDigest(e expectation, baseMs, processed, folded int64) string {
	d := newDigest()
	d.add(e, baseMs)
	return d.sum(processed, folded)
}

func sortCars(cars []trace.CarID) {
	sort.Slice(cars, func(i, j int) bool { return cars[i] < cars[j] })
}

// setShares reports each package's share of a CPU profile's sampled
// time as prof.* metrics.
func setShares(m metrics, times map[string]int64) {
	var total int64
	for _, t := range times {
		total += t
	}
	for _, p := range profPackages {
		m.set("prof."+p, ratio(float64(times[p]), float64(total)))
	}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// weightedQuantile is quantile over values each repeated weight times.
func weightedQuantile(values, weights []float64, q float64) float64 {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	target := q * sum(weights)
	var acc float64
	for _, i := range idx {
		acc += weights[i]
		if acc >= target {
			return values[i]
		}
	}
	if len(idx) == 0 {
		return 0
	}
	return values[idx[len(idx)-1]]
}

// block is one stretch of a run: work done (records), the seconds it
// took, the CPU seconds it used and the seconds of traffic it covered.
type block struct{ work, secs, cpu, span float64 }

// blocks reports a run's rates over consecutive blocks, so a burst of
// outside load on the machine in one part of the run moves the result
// less than it moves a whole-run ratio. rsu-live and the city take the
// median block. rsu-catchup, whose blocks are single rounds, takes the
// faster quarter (fastQuarter): load from outside the process only ever
// slows a round, so the rounds least in its way show the program's own
// cost best.
type blocks struct {
	cur  block
	done []block
}

// fastQuarter is the quantile of a cost (0.25) and, mirrored, of a rate
// (0.75) that rsu-catchup reports over its rounds.
const fastQuarter = 0.25

func (b *blocks) add(work, secs, cpu, span float64) {
	b.cur.work += work
	b.cur.secs += secs
	b.cur.cpu += cpu
	b.cur.span += span
}

// cut closes the current block.
func (b *blocks) cut() {
	if b.cur.work > 0 {
		b.done = append(b.done, b.cur)
	}
	b.cur = block{}
}

// quantile returns the q-quantile over the blocks of f.
func (b *blocks) quantile(f func(block) float64, q float64) float64 {
	v := make([]float64, len(b.done))
	for i, x := range b.done {
		v[i] = f(x)
	}
	return quantile(v, q)
}

// rate, realtime and cpuPerWork take the q-quantile of the cost per
// block: q 0.5 is the median block, a smaller q a faster one.
func (b *blocks) rate(q float64) float64 {
	return b.quantile(func(x block) float64 { return ratio(x.work, x.secs) }, 1-q)
}
func (b *blocks) realtime(q float64) float64 {
	return b.quantile(func(x block) float64 { return ratio(x.span, x.secs) }, 1-q)
}
func (b *blocks) cpuPerWork(q float64) float64 {
	return b.quantile(func(x block) float64 { return ratio(x.cpu, x.work) }, q)
}
