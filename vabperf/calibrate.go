package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vab/internal/core"
	"vab/internal/faults"
	"vab/internal/linksim"
)

// calibrateSize is the calibrate workload's shape; tests shrink the grid.
type calibrateSize struct {
	cfg          linksim.CalibrateConfig
	profileShare float64 // share of the budget the traced round profile gets
}

func defaultCalibrateSize() calibrateSize {
	cfg := linksim.DefaultCalibrateConfig()
	cfg.Workers = runtime.NumCPU()
	return calibrateSize{cfg: cfg, profileShare: 0.15}
}

// calibrateWarmup is the workload's set-up: validate the campaign and
// bring one system per environment through a round, so lazily built
// state (FFT plans, noise shapers) exists before the timed phase.
func calibrateWarmup(cfg linksim.CalibrateConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, name := range cfg.Envs {
		env, err := linksim.EnvByName(name)
		if err != nil {
			return err
		}
		sys, _, err := newSystem(roundSite{cfg: core.SystemConfig{Env: env,
			Range: cfg.RangesM[0], NodeAddr: 1, Seed: cfg.Seed}})
		if err != nil {
			return err
		}
		if _, err := sys.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// calibrationReference returns the committed table when cfg is the
// campaign it was measured from (grid, effort and seed), else nil.
func calibrationReference(cfg linksim.CalibrateConfig) *linksim.Table {
	ref := linksim.DefaultTable()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if cfg.Seed != ref.Seed || cfg.RoundsPerCell != ref.RoundsPerCell || cfg.Scenario != ref.Scenario ||
		len(cfg.Envs) != len(ref.Envs) || !same(cfg.RangesM, ref.RangesM) ||
		!same(cfg.OrientsRad, ref.OrientsRad) || !same(cfg.Intensities, ref.Intensities) {
		return nil
	}
	for i := range cfg.Envs {
		if cfg.Envs[i] != ref.Envs[i] {
			return nil
		}
	}
	return ref
}

// runCalibrate runs the calibration campaign two ways. Its output is
// checked on one linksim.Calibrate(size.cfg) call per run, cell by cell
// against the committed table: the call runs the campaign as given, with
// its own seed, not the workload seed's — at the commit this benchmark
// was written against, linksim.Calibrate does not return for some
// campaign seeds of the default grid (1 and 3 among them: a cell's
// SNRMeanDB is -Inf and fitLogistic's grid search never ends). Its time
// is op_ms: the same campaign recomposed from the public calls it is made
// of (runGrid) on the workload seed's cell seeds, repeated while the
// budget lasts: the mean repetition's wall time, scaled by the host's
// slowdown over the run. The rounds of every repetition must reproduce the
// first's outcomes.
func runCalibrate(size calibrateSize, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	cfg := size.cfg
	want := calibrationReference(cfg)

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		if err := calibrateWarmup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, scaledSetup(time.Since(t)))
	}
	res.e2e["setup_s"] = median(setups)
	res.samples["setup_s"] = setups

	heap := startHeapSampler()
	start := time.Now()
	cpu0 := cpuTime()
	tab, err := linksim.Calibrate(cfg)
	if err != nil {
		return nil, err
	}
	callMs := float64(time.Since(start)) / 1e6
	cpu := cpuTime() - cpu0
	bad, problems := checkCalibration(tab, want)
	res.attempted += int64(len(tab.Cells))
	res.failed += int64(bad)
	res.problems = append(res.problems, problems...)
	res.samples["calibrate_ms"] = []float64{callMs}

	// A traced run makes one repetition, as the baseline of
	// trace_overhead_pct; the Calibrate call above already warmed up.
	budget, least := seconds, minReps
	if traced {
		budget, least = 0, 1
	}
	sites := calibrationSites(cfg, seed)
	per := cfg.RoundsPerCell + 1
	first := make([]uint64, len(sites)*per)
	mismatched := make([]bool, len(first))
	var passes []float64
	var last time.Duration
	var ref refMeter
	for k := 0; timeLeft(start, budget, last, k, least); k++ {
		t := time.Now()
		refBefore := ref.spent()
		err := runGrid(sites, cfg.RoundsPerCell, cfg.Workers, &ref, func(i int, d time.Duration, rep *core.RoundReport) {
			if rep == nil {
				return
			}
			if h := roundDigest(rep); k == 0 {
				first[i] = h
			} else if h != first[i] {
				mismatched[i] = true
			}
		})
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		// The workers sampled the reference between cells; their pass
		// wall time less that share is the campaign's.
		refShare := (ref.spent() - refBefore) / time.Duration(max(cfg.Workers, 1))
		passes = append(passes, float64(last-refShare)/1e6)
		res.attempted += int64(len(sites) * cfg.RoundsPerCell)
	}
	res.e2e["heap_peak_mb"] = heap.peakMB()
	res.e2e["op_ms"] = mean(passes) / ref.slowdown()
	res.samples["grid_pass_ms"] = passes
	sw, ch := ref.halves()
	res.samples["ref_slowdown_sweep_chase"] = []float64{sw, ch}
	var differ int
	for i, m := range mismatched {
		if m {
			res.failed++
			if differ++; differ <= 5 {
				res.problems = append(res.problems, fmt.Sprintf("cell %d round %d: outcome differs between repetitions", i/per, i%per-1))
			}
		}
	}
	if !traced {
		return res, nil
	}

	res.layer["cpu_ns_per_unit"] = float64(cpu) / float64(len(tab.Cells)*cfg.RoundsPerCell)
	gridMs, err := tracedGrid(res, cfg, sites)
	if err != nil {
		return nil, err
	}
	res.layer["trace_overhead_pct"] = 100 * (gridMs - passes[0]) / passes[0]
	return res, profileRounds(res, sites, time.Duration(size.profileShare*seconds*float64(time.Second)))
}

// roundDigest fingerprints a round's outcome.
func roundDigest(rep *core.RoundReport) uint64 {
	h := fnv.New64a()
	rx := &rep.Rx
	var payload []byte
	if rx.OK() {
		payload = rx.Frame.Payload
	}
	fmt.Fprintf(h, "%v %v %v %v %d %d %x %x %x", rep.QueryOK, rep.NodeSilent, rep.PayloadOK, rx.OK(),
		rx.AcqStart, rx.Corrected, math.Float64bits(rep.ToneSNREst), math.Float64bits(rx.SNREstimate), payload)
	return h.Sum64()
}

// calibrationSites lists every grid cell of cfg, in linksim.Calibrate's
// order, with a cell seed derived from the workload seed.
func calibrationSites(cfg linksim.CalibrateConfig, seed int64) []roundSite {
	var sites []roundSite
	for _, name := range cfg.Envs {
		env, _ := linksim.EnvByName(name) // validated in set-up
		for _, in := range cfg.Intensities {
			for _, or := range cfg.OrientsRad {
				for _, r := range cfg.RangesM {
					site := roundSite{cfg: core.SystemConfig{Env: env, Range: r, Orientation: or,
						NodeAddr: 1, Seed: seed<<20 + int64(len(sites))}}
					if in > 0 {
						sc, _ := faults.Parse(cfg.Scenario, site.cfg.Seed+77) // validated in set-up
						sc = sc.Scale(in)
						site.scene = &sc
					}
					sites = append(sites, site)
				}
			}
		}
	}
	return sites
}

// runGrid runs the calibration campaign once, recomposed from the public
// calls it is made of — per cell a System (newSystem: design, system,
// scaled fault engine, pre-campaign soak), then rounds WakeNode+RunRound
// rounds — on workers goroutines that take cells in turn, as
// linksim.Calibrate does. A non-nil ref is sampled after every cell, on
// the goroutine that ran it.
// unit receives every unit's index (cell × (rounds+1) for the set-up,
// + 1 + r for round r), its time and, for a round, its report; calls for
// one cell come from one goroutine.
func runGrid(sites []roundSite, rounds, workers int, ref *refMeter, unit func(i int, d time.Duration, rep *core.RoundReport)) error {
	workers = max(workers, 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= len(sites) {
					return
				}
				base := c * (rounds + 1)
				cell := time.Now()
				t := cell
				sys, _, err := newSystem(sites[c])
				unit(base, time.Since(t), nil)
				if err != nil {
					errs[w] = err
					return
				}
				for r := 0; r < rounds; r++ {
					t := time.Now()
					sys.WakeNode(30)
					rep, err := sys.RunRound()
					d := time.Since(t)
					if err != nil {
						errs[w] = err
						return
					}
					unit(base+1+r, d, &rep)
				}
				if ref != nil {
					ref.sample(refCount(time.Since(cell)))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedGrid runs the recomposed campaign once more with every cell
// set-up and round a span, and reconciles the spans with the grid's wall
// time × workers. It returns that wall time in ms.
func tracedGrid(res *result, cfg linksim.CalibrateConfig, sites []roundSite) (float64, error) {
	sp := res.spans
	start := time.Now()
	err := runGrid(sites, cfg.RoundsPerCell, cfg.Workers, nil, func(i int, d time.Duration, rep *core.RoundReport) {
		if rep == nil {
			sp.add("core.cell_setup", "calibrate(traced)", d)
		} else {
			sp.add("core.round(grid)", "calibrate(traced)", d)
		}
	})
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	sp.add("calibrate(traced)", "", wall)
	children := float64(sp.mean("core.cell_setup"))*float64(sp.count("core.cell_setup")) +
		float64(sp.mean("core.round(grid)"))*float64(sp.count("core.round(grid)"))
	res.reconcile(reconLine{parent: "calibrate(traced)×workers",
		parentMs: float64(wall) * float64(max(cfg.Workers, 1)) / 1e6, childMs: children / 1e6})
	return float64(wall) / 1e6, nil
}

// checkCalibration checks a calibration cell by cell. Against the
// committed reference (same campaign) every cell must be identical; on
// any other seed the table must validate and every cell must be finite,
// a probability, and no better than the nearer cell of its range series.
// It returns the number of failing cells and one line per problem.
func checkCalibration(t, ref *linksim.Table) (badCells int, problems []string) {
	if err := t.Validate(); err != nil {
		problems = append(problems, fmt.Sprintf("calibration table invalid: %v", err))
	}
	bad := make([]bool, len(t.Cells))
	if ref != nil {
		if len(ref.Cells) != len(t.Cells) {
			return len(t.Cells), append(problems, fmt.Sprintf("calibration has %d cells, reference %d", len(t.Cells), len(ref.Cells)))
		}
		for i := range t.Cells {
			bad[i] = t.Cells[i] != ref.Cells[i]
		}
		if t.LogisticK != ref.LogisticK || t.LogisticSNR50 != ref.LogisticSNR50 {
			problems = append(problems, "calibration logistic fit differs from the committed reference")
		}
	} else {
		for e := range t.Envs {
			for in := range t.Intensities {
				for o := range t.OrientsRad {
					prev := math.Inf(1)
					for r := range t.RangesM {
						c := t.CellAt(e, in, o, r)
						idx := ((e*len(t.Intensities)+in)*len(t.OrientsRad)+o)*len(t.RangesM) + r
						finite := !math.IsNaN(c.SNRMeanDB) && !math.IsInf(c.SNRMeanDB, 0) &&
							!math.IsNaN(c.SNRStdDB) && !math.IsNaN(c.CorrMean)
						if !finite || c.PDeliver < 0 || c.PDeliver > 1 || c.PDeliver > prev {
							bad[idx] = true
						}
						prev = c.PDeliver
					}
				}
			}
		}
	}
	for i, b := range bad {
		if b {
			badCells++
			if badCells <= 5 {
				problems = append(problems, fmt.Sprintf("calibration cell %d: %+v", i, t.Cells[i]))
			}
		}
	}
	return badCells, problems
}
