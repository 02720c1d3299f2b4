package city

import (
	"strconv"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// cityVehicle is one simulated vehicle, event-driven: it owns no
// goroutine and no route — just a position on the network, a tiny PRNG,
// and the shard its telemetry currently streams to. Two event chains
// advance it: movement events fire at RSU site boundaries and segment
// ends, telemetry events at exponential inter-arrival gaps.
type cityVehicle struct {
	car trace.CarID
	rng splitmix

	seg      geo.SegmentID
	alongM   float64
	speedMps float64

	site  geo.RSUSite
	shard int
	// enteredMs is when the vehicle entered its current shard (dwell
	// accounting for the skew gauges).
	enteredMs int64

	// hoSeq numbers this vehicle's shard handovers (ledger key).
	hoSeq int32
	// lastTsMs keeps telemetry timestamps strictly increasing per
	// vehicle, so (car, timestamp) is a unique ledger key.
	lastTsMs int64

	keyBuf []byte // "car-<id>", reused for every produce

	// The pending move event's target: the along-track boundary it
	// crosses and the length of the segment it was scheduled on.
	moveBound, moveLen float64
	// The vehicle's two event callbacks, built once at spawn so the
	// event chains schedule without allocating.
	onMove, onTelemetry func()
}

// minMoveMeters clamps a movement hop so boundary epsilons cannot
// schedule zero-length event storms.
const minMoveMeters = 0.5

// spawnVehicles places the fleet uniformly over the network and starts
// each vehicle's movement and telemetry event chains.
func (d *Driver) spawnVehicles() {
	d.vehicles = make([]*cityVehicle, d.cfg.Vehicles)
	for i := range d.vehicles {
		v := &cityVehicle{
			car: trace.CarID(i + 1),
			rng: newSplitmix(d.rng.next()),
		}
		v.seg = d.segs[v.rng.intn(len(d.segs))]
		seg := d.part.Net.Segment(v.seg)
		v.alongM = v.rng.float() * seg.LengthMeters()
		v.refreshSpeed(seg)
		site, ok := d.part.SiteAt(v.seg, v.alongM)
		if !ok {
			// Every segment gets >= 1 site at partitioning; unreachable.
			continue
		}
		v.site = site
		v.shard = d.part.ShardOfSite(site.ID)
		v.enteredMs = d.nowMs()
		v.keyBuf = append([]byte("car-"), strconv.Itoa(i+1)...)
		v.onMove = func() { d.move(v) }
		v.onTelemetry = func() { d.telemetry(v) }
		d.vehicles[i] = v
		d.scheduleMove(v)
		d.scheduleTelemetry(v)
	}
}

// refreshSpeed redraws the vehicle's speed for a segment: 75%..125% of
// the road-type limit.
func (v *cityVehicle) refreshSpeed(seg *geo.Segment) {
	limit := seg.Type.SpeedLimitKmh()
	v.speedMps = limit * (0.75 + 0.5*v.rng.float()) / 3.6
	if v.speedMps < 1 {
		v.speedMps = 1
	}
}

// nextBoundary returns the along-track position of the next RSU site
// boundary ahead of the vehicle (the midpoint between consecutive site
// centers), or the segment length when the rest of the segment is one
// coverage stretch.
func (d *Driver) nextBoundary(v *cityVehicle, length float64) float64 {
	row := d.part.SitesOf(v.seg)
	for i := 0; i+1 < len(row); i++ {
		mid := (row[i].AlongMeters + row[i+1].AlongMeters) / 2
		if mid > v.alongM+1e-6 {
			return mid
		}
	}
	return length
}

// scheduleMove schedules the vehicle's next site-boundary or
// segment-end crossing. Each firing reschedules the next, so a vehicle
// costs O(crossings) events, not O(ticks).
func (d *Driver) scheduleMove(v *cityVehicle) {
	v.moveLen = d.part.Net.Segment(v.seg).LengthMeters()
	v.moveBound = d.nextBoundary(v, v.moveLen)
	dist := v.moveBound - v.alongM
	if dist < minMoveMeters {
		dist = minMoveMeters
	}
	dt := time.Duration(dist / v.speedMps * float64(time.Second))
	if dt < time.Millisecond {
		dt = time.Millisecond
	}
	d.sim.After(dt, v.onMove)
}

// move fires the crossing scheduleMove scheduled.
func (d *Driver) move(v *cityVehicle) {
	if v.moveBound >= v.moveLen-1e-6 {
		d.advanceSegment(v)
	} else {
		v.alongM = v.moveBound + 0.01
	}
	d.relocate(v)
	if d.sim.Now().Before(d.end) {
		d.scheduleMove(v)
	}
}

// advanceSegment walks the vehicle onto a successor segment, or
// teleports it to a random one at a dead end (counted — the synthetic
// graph keeps these rare after densification).
func (d *Driver) advanceSegment(v *cityVehicle) {
	next, ok := d.part.Net.NextSegment(v.seg, v.rng.intn)
	if !ok {
		next = d.segs[v.rng.intn(len(d.segs))]
		d.m.routeResets.Inc()
	}
	v.seg = next
	v.alongM = 0
	v.refreshSpeed(d.part.Net.Segment(next))
}

// relocate re-map-matches the vehicle after a move and runs the
// handover protocol on site and shard crossings.
func (d *Driver) relocate(v *cityVehicle) {
	site, ok := d.part.SiteAt(v.seg, v.alongM)
	if !ok || site.ID == v.site.ID {
		return
	}
	v.site = site
	d.m.siteHandovers.Inc()
	if next := d.part.ShardOfSite(site.ID); next != v.shard {
		d.handover(v, next)
	}
}

// handover moves a vehicle's stream affinity between shards: dwell is
// settled against the source shard, the in-flight CO-DATA summary is
// forwarded through the router, and the transfer is entered into the
// settlement ledger.
func (d *Driver) handover(v *cityVehicle, dst int) {
	src := d.shards[v.shard]
	now := d.nowMs()
	src.dwellMs += now - v.enteredMs
	v.enteredMs = now
	d.m.handovers.Inc()

	if sum, ok := src.summarizeForHandover(v.car); ok {
		seq := v.hoSeq
		v.hoSeq++
		payload, err := core.EncodeSummary(sum)
		if err == nil {
			d.scratch = appendHandoverKey(d.scratch[:0], v.car, seq)
			if d.router.Forward(d.shards[dst].name, d.scratch, payload) == nil {
				d.hoLedger[hoKey{car: v.car, seq: seq}] = &hoRow{dst: dst}
				d.m.handoverSummaries.Inc()
			}
		}
	} else {
		d.m.handoverEmpty.Inc()
	}
	v.shard = dst
}

// scheduleTelemetry schedules the vehicle's next telemetry emission at
// an exponential gap over the combined probe + abnormal-event rate.
func (d *Driver) scheduleTelemetry(v *cityVehicle) {
	rate := d.cfg.EventsPerVehicleHour + d.cfg.ProbesPerVehicleHour
	d.sim.After(v.rng.expGap(rate), v.onTelemetry)
}

// telemetry fires the emission scheduleTelemetry scheduled.
func (d *Driver) telemetry(v *cityVehicle) {
	d.emitTelemetry(v)
	if d.sim.Now().Before(d.end) {
		d.scheduleTelemetry(v)
	}
}

// emitTelemetry produces one telemetry record to the vehicle's current
// shard and books it into the warning ledger: ground truth (was it
// abnormal?) is recorded now, the acked flag flips when the produce
// lands, and settlement holds detection to exactly the acked abnormal
// rows.
func (d *Driver) emitTelemetry(v *cityVehicle) {
	abnormal := v.rng.float()*(d.cfg.EventsPerVehicleHour+d.cfg.ProbesPerVehicleHour) < d.cfg.EventsPerVehicleHour
	seg := d.part.Net.Segment(v.seg)
	limit := seg.Type.SpeedLimitKmh()
	ts := d.nowMs()
	if ts <= v.lastTsMs {
		ts = v.lastTsMs + 1
	}
	v.lastTsMs = ts
	now := d.sim.Now()
	rec := trace.Record{
		Car:           v.car,
		Road:          v.seg,
		Hour:          now.Hour(),
		Day:           now.Day(),
		RoadType:      seg.Type,
		RoadMeanSpeed: limit * 0.9,
		TimestampMs:   ts,
	}
	pos := seg.PointAt(v.alongM / maxf(seg.LengthMeters(), 1e-9))
	rec.Lat, rec.Lon = pos.Lat, pos.Lon
	if abnormal {
		rec.Accel = d.cfg.AccelThreshold*1.5 + 4*v.rng.float()
		rec.Speed = limit * 1.6
		d.m.abnormal.Inc()
	} else {
		rec.Accel = 2 * v.rng.float()
		rec.Speed = limit * (0.8 + 0.3*v.rng.float())
		d.m.probes.Inc()
	}
	d.m.telemetry.Inc()

	k := warnKey{car: v.car, ts: ts}
	d.warnLedger[k] = warnRow{shard: v.shard, abnormal: abnormal}
	d.scratch = core.AppendRecord(d.scratch[:0], rec)
	d.shards[v.shard].produce(stream.TopicInData, v.keyBuf, d.scratch, func() {
		row := d.warnLedger[k]
		row.acked = true
		d.warnLedger[k] = row
	})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
