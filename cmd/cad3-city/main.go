// Command cad3-city runs the city-scale sharded simulation: a full
// synthetic city (thousands of RSU sites) partitioned across N worker
// shards — each a replicated broker cluster — replaying a large
// vehicle fleet on one shared virtual clock. Vehicles stream telemetry
// to the shard covering their map-matched position; shard-boundary
// crossings run the handover protocol, forwarding in-flight CO-DATA
// summaries through the cross-shard router; and the settlement ledger
// proves at the end that no warning and no handover summary was lost
// or double-counted.
//
// Usage:
//
//	cad3-city [-vehicles 100000] [-shards 8] [-replicas 3]
//	          [-minutes 30] [-scale 0.25] [-extent 12000]
//	          [-seed 42] [-faults] [-cpuprofile city.prof]
//
// The command exits nonzero if the settlement ledger is dirty or the
// per-shard load skew exceeds 1.5x the median — it is the acceptance
// gate `make city` runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"cad3/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cad3-city:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	vehicles := flag.Int("vehicles", 100_000, "fleet size")
	shards := flag.Int("shards", 8, "worker shard count")
	replicas := flag.Int("replicas", 3, "broker replicas per shard")
	minutes := flag.Int("minutes", 30, "simulated span in minutes")
	scale := flag.Float64("scale", 0.25, "synthetic city street density")
	extent := flag.Float64("extent", 12_000, "city half-width in meters")
	seed := flag.Int64("seed", 42, "random seed (network + fleet)")
	faults := flag.Bool("faults", false, "kill and revive one replica per even shard mid-run")
	maxSkew := flag.Float64("max-skew", 1.5, "fail if shard dwell skew exceeds this factor of the median")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return fmt.Errorf("start cpu profile: %w", perr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("write cpu profile: %w", cerr)
			}
		}()
	}

	fmt.Printf("building city (scale=%.2f extent=%.0fm seed=%d) and replaying %d vehicles x %dmin over %d shards...\n",
		*scale, *extent, *seed, *vehicles, *minutes, *shards)
	start := time.Now()
	study, err := experiments.RunCityStudy(experiments.CityStudyConfig{
		Scale:        *scale,
		ExtentMeters: *extent,
		Shards:       *shards,
		Vehicles:     *vehicles,
		Replicas:     *replicas,
		Duration:     time.Duration(*minutes) * time.Minute,
		Seed:         *seed,
		Faults:       *faults,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start).Round(10 * time.Millisecond)

	fmt.Println()
	fmt.Println(experiments.FormatCityStudy(study))
	r := study.Report
	speedup := float64(*minutes) * float64(time.Minute) / float64(time.Since(start))
	fmt.Printf("wall time: %v for %v simulated (%.0fx real time, %d sim events)\n",
		wall, time.Duration(*minutes)*time.Minute, speedup, r.SimEvents)

	if !r.SettlementClean() {
		return fmt.Errorf("settlement DIRTY: %d warnings lost, %d dup, %d false; %d handovers lost, %d dup, %d misrouted",
			r.WarningsLost, r.WarningsDup, r.FalseWarnings,
			r.HandoverLost, r.HandoverDups, r.HandoverMisrouted)
	}
	if r.TelemetryUnacked != 0 {
		return fmt.Errorf("%d telemetry records never acked", r.TelemetryUnacked)
	}
	if skew := r.Skew(); skew > *maxSkew {
		return fmt.Errorf("shard dwell skew %.2fx exceeds %.2fx: %v", skew, *maxSkew, r.ShardDwellMs)
	}
	if r.Sites < 100 {
		return fmt.Errorf("city placed only %d RSU sites (want >= 100)", r.Sites)
	}
	fmt.Println("acceptance: PASS")
	return nil
}
