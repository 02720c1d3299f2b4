// Package city is the sharded city-scale simulation driver: the whole
// synthetic city — road network, RSU sites, brokers, vehicles — runs as
// one discrete-event program on a single virtual clock, partitioned
// across N worker shards. Each shard owns a replicated broker cluster
// (stream.ReplicaSet) and the detection state for the RSU sites the
// consistent-hash ring assigns it; vehicles are event-driven (an event
// per site-boundary crossing and per telemetry emission, not per tick),
// which is what lets a 100k-vehicle simulated hour finish in minutes of
// wall time and a 1M-vehicle hour stay tractable.
//
// When a journey crosses a shard boundary the driver runs the handover
// protocol: the vehicle's stream affinity moves to the destination
// shard's broker, and its in-flight CO-DATA summary (live prediction
// history, or the last forwarded prior while still fresh) is forwarded
// through the cross-shard SummaryRouter. Every forwarded summary is
// entered into a settlement ledger keyed (car, handover seq); the
// destination shard dedups on that key, and settlement proves each
// ledgered summary was applied exactly once — none lost in transit,
// none double-counted. Warnings settle the same way, keyed (car,
// source timestamp), against the ground truth recorded when the
// abnormal record was acked.
//
// The package is wall-clock-free by construction (cad3-vet's
// virtualclock analyzer enforces it): all time comes from the injected
// netem.Simulator.
package city

import (
	"fmt"
	"math"
	"time"

	"cad3/internal/geo"
	"cad3/internal/netem"
	"cad3/internal/obsv"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// cityEpochMs anchors the virtual clock (same instant the scenario
// harness uses), so timestamps are stable run to run.
const cityEpochMs = 1_700_000_000_000

// Fault is one scheduled replica fault: a kill or revive of one member
// of one shard's broker cluster at a virtual offset into the run.
type Fault struct {
	At      time.Duration
	Shard   int
	Replica int
	Revive  bool
}

// Config sizes a city run. The zero value of every field selects a
// sensible small default; Network is required.
type Config struct {
	// Network is the city road graph. Required; densify it first
	// (geo.ConnectNearest) so random journeys keep moving.
	Network *geo.Network
	// CoverageMeters is the RSU coverage interval (site spacing).
	// <= 0 selects geo.DefaultRSUCoverageMeters.
	CoverageMeters float64
	// Shards is the worker shard count. <= 0 selects 4.
	Shards int
	// VNodes per shard on the consistent-hash ring. <= 0 selects 2048:
	// a city has only a few hundred position cells, so the ring needs
	// many virtual nodes before per-shard arc lengths concentrate
	// tightly enough for the 1.5x load-skew gate.
	VNodes int
	// CellMeters is the position-cell size for shard assignment. <= 0
	// selects 2000 m.
	CellMeters float64
	// Vehicles is the fleet size. <= 0 selects 1000.
	Vehicles int
	// Replicas is each shard's broker cluster size. <= 0 selects 3.
	Replicas int
	// Partitions per topic. <= 0 selects 4.
	Partitions int
	// Seed drives every random choice (routes, speeds, event times).
	Seed int64
	// Duration is the simulated time span. <= 0 selects 10 minutes.
	Duration time.Duration
	// BatchInterval is each shard's detection/drain cadence. <= 0
	// selects 100 ms.
	BatchInterval time.Duration
	// TickInterval is the control-plane cadence (replica resync +
	// elections + router flush). <= 0 selects 1 s.
	TickInterval time.Duration
	// EventsPerVehicleHour is the abnormal-episode rate. <= 0 selects 2.
	EventsPerVehicleHour float64
	// ProbesPerVehicleHour is the normal-telemetry rate. <= 0 selects 2.
	ProbesPerVehicleHour float64
	// SummaryTTL is the freshness window for forwarded priors. <= 0
	// selects 5 minutes.
	SummaryTTL time.Duration
	// AccelThreshold (km/h/s) separates abnormal from normal records.
	// <= 0 selects 8.
	AccelThreshold float64
	// Faults is an optional replica kill/revive schedule.
	Faults []Fault
	// Metrics receives the city.* / shard.* family (plus the per-shard
	// repl.* / election.* and router families). Nil uses a private
	// registry; the Report carries the numbers either way.
	Metrics *obsv.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.Network == nil || c.Network.SegmentCount() == 0 {
		return c, fmt.Errorf("city: config needs a non-empty network")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.VNodes <= 0 {
		c.VNodes = 2048
	}
	if c.Vehicles <= 0 {
		c.Vehicles = 1000
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Minute
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = 100 * time.Millisecond
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	if c.EventsPerVehicleHour <= 0 {
		c.EventsPerVehicleHour = 2
	}
	if c.ProbesPerVehicleHour <= 0 {
		c.ProbesPerVehicleHour = 2
	}
	if c.SummaryTTL <= 0 {
		c.SummaryTTL = 5 * time.Minute
	}
	if c.AccelThreshold <= 0 {
		c.AccelThreshold = 8
	}
	if c.Metrics == nil {
		c.Metrics = obsv.NewRegistry()
	}
	return c, nil
}

// warnKey identifies one telemetry record in the warning ledger.
type warnKey struct {
	car trace.CarID
	ts  int64
}

// warnRow is the warning ledger's ground truth for one record.
type warnRow struct {
	shard    int
	abnormal bool
	acked    bool
}

// hoKey identifies one ledgered handover.
type hoKey struct {
	car trace.CarID
	seq int32
}

// hoRow is one settlement-ledger handover entry.
type hoRow struct {
	dst     int
	applied int
}

// Driver owns one city run.
type Driver struct {
	cfg  Config
	sim  *netem.Simulator
	part *geo.CityPartition
	segs []geo.SegmentID

	shards   []*shard
	router   *stream.SummaryRouter
	vehicles []*cityVehicle

	m   *cityMetrics
	rng splitmix

	start, end time.Time

	// Settlement ledgers.
	warnLedger map[warnKey]warnRow
	warnSeen   map[warnKey]int
	hoLedger   map[hoKey]*hoRow

	scratch []byte // single-goroutine encode buffer
	started bool
	ran     bool
}

// NewDriver partitions the city and stands up every shard's replicated
// broker cluster. Construction registers the full metric family but
// runs nothing.
func NewDriver(cfg Config) (*Driver, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	part, err := geo.PartitionCity(cfg.Network, geo.PartitionConfig{
		CoverageMeters: cfg.CoverageMeters,
		Shards:         cfg.Shards,
		VNodes:         cfg.VNodes,
		CellMeters:     cfg.CellMeters,
	})
	if err != nil {
		return nil, err
	}
	d := &Driver{
		cfg:        cfg,
		sim:        netem.NewSimulator(time.UnixMilli(cityEpochMs)),
		part:       part,
		m:          newCityMetrics(cfg.Metrics),
		rng:        newSplitmix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15),
		warnLedger: make(map[warnKey]warnRow),
		warnSeen:   make(map[warnKey]int),
		hoLedger:   make(map[hoKey]*hoRow),
	}
	d.start = d.sim.Now()
	d.end = d.start.Add(cfg.Duration)
	for _, seg := range cfg.Network.AllSegments() {
		d.segs = append(d.segs, seg.ID)
	}
	d.router = stream.NewSummaryRouter(stream.RouterConfig{Metrics: cfg.Metrics})
	for i := 0; i < cfg.Shards; i++ {
		s, err := newShard(d, i)
		if err != nil {
			return nil, err
		}
		d.shards = append(d.shards, s)
		if err := d.router.Register(s.name, s.rs.Client(stream.AckAll)); err != nil {
			return nil, err
		}
	}
	d.m.vehicles.Set(int64(cfg.Vehicles))
	d.m.shards.Set(int64(cfg.Shards))
	d.m.sites.Set(int64(len(part.Sites)))
	return d, nil
}

// Partition exposes the planned city (sites + shard assignment).
func (d *Driver) Partition() *geo.CityPartition { return d.part }

// Run executes the configured virtual span and settles the ledgers.
// One Driver runs once.
func (d *Driver) Run() (*Report, error) {
	if d.ran || d.started {
		return nil, fmt.Errorf("city: driver already ran")
	}
	d.ran = true
	if err := d.Start(); err != nil {
		return nil, err
	}
	events := d.sim.RunUntil(d.end)
	d.settle()
	return d.report(int64(events)), nil
}

// Start spawns the fleet, schedules every shard's cadences and the
// configured fault plan, but runs nothing: virtual time only advances
// through Run (the whole span at once) or Advance (incremental stepping
// for a round-driven caller like the scenario harness).
func (d *Driver) Start() error {
	if d.started {
		return fmt.Errorf("city: driver already started")
	}
	d.started = true
	d.spawnVehicles()
	for _, s := range d.shards {
		d.scheduleBatch(s)
		d.scheduleTick(s)
	}
	for i := range d.cfg.Faults {
		f := d.cfg.Faults[i]
		s := f.Shard
		if s < 0 || s >= len(d.shards) || f.Replica < 0 || f.Replica >= d.cfg.Replicas {
			return fmt.Errorf("city: fault %d out of range: %+v", i, f)
		}
		d.sim.At(d.start.Add(f.At), func() { d.shards[s].applyFault(f) })
	}
	return nil
}

// scheduleBatch self-reschedules a shard's drain/detect cadence until
// the run ends, reusing one callback for every round.
func (d *Driver) scheduleBatch(s *shard) {
	var fire func()
	fire = func() {
		s.batch()
		if d.sim.Now().Before(d.end) {
			d.sim.After(d.cfg.BatchInterval, fire)
		}
	}
	d.sim.After(d.cfg.BatchInterval, fire)
}

// scheduleTick self-reschedules a shard's control-plane cadence. The
// router flush rides shard 0's tick (one flush per interval).
func (d *Driver) scheduleTick(s *shard) {
	var fire func()
	fire = func() {
		s.tick()
		if s.id == 0 {
			_, _ = d.router.Flush()
		}
		if d.sim.Now().Before(d.end) {
			d.sim.After(d.cfg.TickInterval, fire)
		}
	}
	d.sim.After(d.cfg.TickInterval, fire)
}

// nowMs returns the current virtual instant in Unix milliseconds.
func (d *Driver) nowMs() int64 { return d.sim.Now().UnixMilli() }

// splitmix is splitmix64: a tiny, fast, deterministic PRNG. One 8-byte
// state per vehicle keeps a million-vehicle fleet's memory flat where a
// math/rand.Rand per vehicle would cost ~5 KB each.
type splitmix struct{ state uint64 }

func newSplitmix(seed uint64) splitmix { return splitmix{state: seed} }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (s *splitmix) intn(n int) int {
	return int(s.next() % uint64(n))
}

// float returns a uniform float64 in [0, 1).
func (s *splitmix) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// expGap draws an exponential inter-arrival gap for a rate per hour.
func (s *splitmix) expGap(perHour float64) time.Duration {
	u := s.float()
	if u <= 0 {
		u = 1e-12
	}
	hours := -math.Log(u) / perHour
	return time.Duration(hours * float64(time.Hour))
}
