package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSimulatorOrdering(t *testing.T) {
	s := NewSimulator(t0)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run processed %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if got := s.Now(); !got.Equal(t0.Add(30 * time.Millisecond)) {
		t.Errorf("clock = %v", got)
	}
}

func TestSimulatorFIFOTiebreak(t *testing.T) {
	s := NewSimulator(t0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestSimulatorCascade(t *testing.T) {
	s := NewSimulator(t0)
	var fired int
	var chain func()
	chain = func() {
		fired++
		if fired < 10 {
			s.After(time.Millisecond, chain)
		}
	}
	s.After(0, chain)
	s.Run()
	if fired != 10 {
		t.Errorf("cascade fired %d times, want 10", fired)
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	s := NewSimulator(t0)
	var fired []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d * time.Millisecond
		s.After(d, func() { fired = append(fired, d) })
	}
	n := s.RunUntil(t0.Add(25 * time.Millisecond))
	if n != 2 || len(fired) != 2 {
		t.Errorf("RunUntil processed %d events, fired %v", n, fired)
	}
	if !s.Now().Equal(t0.Add(25 * time.Millisecond)) {
		t.Errorf("clock after RunUntil = %v", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestSimulatorPastScheduling(t *testing.T) {
	s := NewSimulator(t0)
	var at time.Time
	s.At(t0.Add(-time.Hour), func() { at = s.Now() })
	s.Run()
	if !at.Equal(t0) {
		t.Errorf("past event fired at %v, want clamped to %v", at, t0)
	}
	s.After(-5*time.Second, func() {})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != ErrSimEmpty {
		t.Errorf("err = %v, want ErrSimEmpty", err)
	}
}

func TestMediumSerializesTransmissions(t *testing.T) {
	m, err := NewMedium(MediumConfig{MCS: MCS3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two frames entering at the same instant: the second must wait for
	// the first to clear the channel.
	d1, err := m.Transmit("v1", ReportBytes, t0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.Transmit("v2", ReportBytes, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.After(d1) {
		t.Errorf("second frame delivered at %v, not after first %v", d2, d1)
	}
	gap := d2.Sub(d1)
	if gap < 360*time.Microsecond {
		t.Errorf("gap %v below one frame airtime", gap)
	}
	st := m.Stats()
	if st.Transmissions != 2 || st.PayloadBytes != 2*ReportBytes {
		t.Errorf("stats = %+v", st)
	}
	if st.WireBytes <= st.PayloadBytes {
		t.Error("wire bytes must include MAC overhead")
	}
	if m.MCS() != MCS3 {
		t.Errorf("MCS = %v", m.MCS())
	}
}

func TestMediumIdleChannelFast(t *testing.T) {
	m, err := NewMedium(MediumConfig{MCS: MCS8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// On an idle channel a report should deliver in well under 1 ms.
	d, err := m.Transmit("v1", ReportBytes, t0)
	if err != nil {
		t.Fatal(err)
	}
	if lat := d.Sub(t0); lat > time.Millisecond {
		t.Errorf("idle-channel latency %v, want < 1ms", lat)
	}
}

func TestMediumWithHTBShaping(t *testing.T) {
	h, err := NewHTB(DSRCBandwidthBps, t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass("v1", PerVehicleFloorBps, 0); err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(MediumConfig{MCS: MCS3, HTB: h, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit("v1", ReportBytes, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit("ghost", ReportBytes, t0); err == nil {
		t.Error("want unknown-class error through shaping")
	}
}

func TestMediumInvalidConfig(t *testing.T) {
	if _, err := NewMedium(MediumConfig{MCS: MCS(42)}); err == nil {
		t.Error("want invalid-MCS error")
	}
	m, err := NewMedium(MediumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.MCS() != MCS3 {
		t.Errorf("default MCS = %v, want MCS3", m.MCS())
	}
}

func TestMedium256VehiclesOneRound(t *testing.T) {
	// 256 vehicles each sending one 200 B report: the channel must drain
	// them in the same order of magnitude as Equation 5 predicts (~100 ms
	// at MCS3) and within a few reporting periods.
	m, err := NewMedium(MediumConfig{MCS: MCS3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Time
	for v := 0; v < 256; v++ {
		d, err := m.Transmit("v", ReportBytes, t0)
		if err != nil {
			t.Fatal(err)
		}
		last = d
	}
	total := last.Sub(t0)
	if total < 50*time.Millisecond || total > 250*time.Millisecond {
		t.Errorf("256-vehicle drain = %v, want ~100ms order", total)
	}
}

// eventClock is the surface the reference-order test drives: the
// simulator and refSim both implement it.
type eventClock interface {
	Now() time.Time
	At(time.Time, func())
	After(time.Duration, func())
	Step() error
	RunUntil(time.Time) int
	Run() int
	Pending() int
}

// refSim is the reference model of the simulator's queue: an unordered
// slice, sorted by (at, seq) before every pop. at is nanoseconds since
// start, clamped to the present and saturated at the int64 range.
type refSim struct {
	start   time.Time
	at, seq int64
	queue   []refEvent
}

type refEvent struct {
	at, seq int64
	fn      func()
}

func (r *refSim) Now() time.Time { return r.start.Add(time.Duration(r.at)) }

func (r *refSim) At(t time.Time, fn func()) { r.add(int64(t.Sub(r.start)), fn) }

func (r *refSim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if int64(d) > math.MaxInt64-r.at {
		r.add(math.MaxInt64, fn)
		return
	}
	r.add(r.at+int64(d), fn)
}

func (r *refSim) add(at int64, fn func()) {
	if at < r.at {
		at = r.at
	}
	r.seq++
	r.queue = append(r.queue, refEvent{at: at, seq: r.seq, fn: fn})
}

func (r *refSim) Step() error {
	if len(r.queue) == 0 {
		return ErrSimEmpty
	}
	sort.Slice(r.queue, func(i, j int) bool {
		a, b := r.queue[i], r.queue[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	e := r.queue[0]
	r.queue = r.queue[1:]
	r.at = e.at
	e.fn()
	return nil
}

func (r *refSim) RunUntil(deadline time.Time) int {
	dl := int64(deadline.Sub(r.start))
	var n int
	for len(r.queue) > 0 {
		next := r.queue[0]
		for _, e := range r.queue[1:] {
			if e.at < next.at || (e.at == next.at && e.seq < next.seq) {
				next = e
			}
		}
		if next.at > dl {
			break
		}
		_ = r.Step()
		n++
	}
	if dl > r.at {
		r.at = dl
	}
	return n
}

func (r *refSim) Run() int {
	var n int
	for r.Step() == nil {
		n++
	}
	return n
}

func (r *refSim) Pending() int { return len(r.queue) }

// refWorkload drives c through a seeded random schedule and returns its
// transcript: every firing with the clock it saw, and every RunUntil with
// its count and the clock after it. Each event's children are a pure
// function of the seed and the event's id, and ids are handed out in
// scheduling order, so two clocks give the same transcript exactly when
// they fire in the same order at the same instants.
func refWorkload(c eventClock, start time.Time, seed int64) []string {
	const maxEvents = 3000
	// Few distinct gaps, so simultaneous events and deadlines that land
	// on an event's instant are common.
	gaps := []time.Duration{0, 0, time.Nanosecond, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	var log []string
	clock := func() string {
		now := c.Now()
		return fmt.Sprintf("%d %s", int64(now.Sub(start)), now.Format(time.RFC3339Nano))
	}
	var ids int
	var schedule func(rng *rand.Rand)
	fire := func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d @ %s", id, clock()))
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
			for n := rng.Intn(4); n > 0 && ids < maxEvents; n-- {
				schedule(rng)
			}
		}
	}
	schedule = func(rng *rand.Rand) {
		ids++
		fn := fire(ids)
		now := c.Now()
		switch k := rng.Intn(20); {
		case k < 10:
			c.After(gaps[rng.Intn(len(gaps))], fn)
		case k < 13:
			c.At(now.Add(gaps[rng.Intn(len(gaps))]), fn)
		case k < 15:
			c.At(now.Add(-time.Duration(rng.Intn(3)+1)*time.Hour), fn) // past: clamped
		case k < 16:
			c.After(-time.Second, fn) // negative: clamped
		case k < 17:
			c.After(time.Duration(math.MaxInt64-rng.Int63n(3)), fn) // saturates
		case k < 18:
			c.At(time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), fn) // saturates
		default:
			c.After(time.Duration(rng.Int63n(int64(time.Second))), fn)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 50; i++ {
		schedule(rng)
	}
	for c.Pending() > 0 {
		switch k := rng.Intn(10); {
		case k < 5:
			_ = c.Step()
		case k < 9:
			dl := c.Now().Add(gaps[rng.Intn(len(gaps))])
			n := c.RunUntil(dl)
			log = append(log, fmt.Sprintf("until %d -> %d @ %s", int64(dl.Sub(start)), n, clock()))
		default:
			if ids < maxEvents {
				schedule(rng)
			}
		}
	}
	log = append(log, fmt.Sprintf("drained %d @ %s", c.Run(), clock()))
	return log
}

// TestSimulatorMatchesReferenceOrder runs seeded random schedules through
// the simulator and the sorted-slice reference: the firing order and the
// clock at every firing and after every RunUntil must agree exactly.
func TestSimulatorMatchesReferenceOrder(t *testing.T) {
	// A zone other than UTC: Now() must stay in start's location.
	start := time.Date(2016, 7, 4, 8, 0, 0, 0, time.FixedZone("UTC+2", 2*3600))
	for seed := int64(1); seed <= 5; seed++ {
		want := refWorkload(&refSim{start: start}, start, seed)
		got := refWorkload(NewSimulator(start), start, seed)
		for i := 0; i < len(want) || i < len(got); i++ {
			if i >= len(want) || i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: transcripts diverge at line %d:\n got %v\nwant %v",
					seed, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
			}
		}
		// The schedule must have exercised what it is meant to.
		var ties, saturated int
		last := ""
		for _, line := range want {
			if !strings.HasPrefix(line, "fire ") {
				continue
			}
			at := line[strings.Index(line, "@"):]
			if at == last {
				ties++
			}
			last = at
			if strings.HasPrefix(at, fmt.Sprintf("@ %d ", int64(math.MaxInt64))) {
				saturated++
			}
		}
		if ties < 100 || saturated == 0 {
			t.Fatalf("seed %d: weak schedule: %d lines, %d ties, %d saturated firings", seed, len(want), ties, saturated)
		}
	}
}

// TestSimulatorSteadyStateAllocFree: once the queue's backing array has
// grown, scheduling a prebuilt func and firing it allocates nothing.
func TestSimulatorSteadyStateAllocFree(t *testing.T) {
	s := NewSimulator(t0)
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Second, fn)
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocates %.1f times per event, want 0", allocs)
	}
}

// TestSimulatorReleasesFiredEvents: a fired event's closure is not left
// reachable from the queue's backing array.
func TestSimulatorReleasesFiredEvents(t *testing.T) {
	s := NewSimulator(t0)
	for i := 0; i < 100; i++ {
		s.After(time.Duration(i%7)*time.Millisecond, func() {})
	}
	s.RunUntil(t0.Add(3 * time.Millisecond))
	q := s.queue[:cap(s.queue)]
	for i := s.Pending(); i < len(q); i++ {
		if q[i].fn != nil {
			t.Fatalf("vacated slot %d still holds a closure", i)
		}
	}
}
