package netem

import (
	"errors"
	"math"
	"time"
)

// Simulator is a minimal discrete-event simulator: a virtual clock and an
// event queue. The latency experiments run the whole CAD3 pipeline —
// vehicle transmissions, MAC contention, micro-batch boundaries,
// processing, consumer polling — on this clock, making the Figure 6
// benches deterministic and wall-clock-independent.
//
// Events fire in the total order (at, seq): at is the event's virtual
// instant in nanoseconds since the start instant, seq the order in which
// it was scheduled, so simultaneous events fire first-scheduled first.
// The queue is a 4-ary min-heap over that key; it boxes nothing, so once
// its backing array has grown, scheduling and firing allocate nothing.
type Simulator struct {
	start time.Time
	at    int64     // current virtual instant, ns since start
	now   time.Time // start + at, recomputed only when at changes
	queue []event
	seq   int64
}

// ErrSimEmpty is returned by Step when no events remain.
var ErrSimEmpty = errors.New("netem: simulator has no pending events")

type event struct {
	at, seq int64
	fn      func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// NewSimulator starts a simulator at the given virtual instant.
func NewSimulator(start time.Time) *Simulator {
	return &Simulator{start: start, now: start}
}

// Now returns the current virtual time, in start's time.Location. It has
// the signature of time.Now so components accept it as an injected clock.
func (s *Simulator) Now() time.Time { return s.now }

// offset converts t to nanoseconds since start, saturating at the int64
// range as time.Time.Sub does.
func (s *Simulator) offset(t time.Time) int64 { return int64(t.Sub(s.start)) }

// At schedules fn at an absolute virtual time. Scheduling in the past
// fires at the current instant; an instant more than ~292 years from
// start saturates to the last representable one.
func (s *Simulator) At(t time.Time, fn func()) {
	s.schedule(s.offset(t), fn)
}

// After schedules fn after a virtual delay. A negative delay fires at the
// current instant; a delay past the clock's range saturates.
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	at := s.at + int64(d)
	if at < s.at {
		at = math.MaxInt64
	}
	s.schedule(at, fn)
}

func (s *Simulator) schedule(at int64, fn func()) {
	if at < s.at {
		at = s.at
	}
	s.seq++
	s.push(event{at: at, seq: s.seq, fn: fn})
}

// setAt moves the clock to at.
func (s *Simulator) setAt(at int64) {
	if at != s.at {
		s.at = at
		s.now = s.start.Add(time.Duration(at))
	}
}

// Step pops and runs the next event, advancing the clock.
func (s *Simulator) Step() error {
	if len(s.queue) == 0 {
		return ErrSimEmpty
	}
	e := s.pop()
	s.setAt(e.at)
	e.fn()
	return nil
}

// RunUntil processes events until the queue is empty or the clock would
// pass the deadline; events scheduled after the deadline stay queued. It
// returns the number of events processed.
func (s *Simulator) RunUntil(deadline time.Time) int {
	dl := s.offset(deadline)
	var n int
	for len(s.queue) > 0 && s.queue[0].at <= dl {
		_ = s.Step()
		n++
	}
	if dl > s.at {
		s.setAt(dl)
	}
	return n
}

// Run processes all pending events (including those newly scheduled by
// event handlers), returning the count. Use with care: a self-rescheduling
// event makes this loop forever — prefer RunUntil in that case.
func (s *Simulator) Run() int {
	var n int
	for len(s.queue) > 0 {
		_ = s.Step()
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

// The queue is a 4-ary heap: node i's children are 4i+1..4i+4. Against a
// binary heap it halves the depth a pop sifts through, and a node's
// children share a cache line or two.
const heapArity = 4

func (s *Simulator) push(e event) {
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the vacated slot's closure so it can be collected
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}
