package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vab/internal/core"
	"vab/internal/faults"
	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/ocean"
)

// chaosSize is the fleet_chaos_500k shape; tests shrink it.
type chaosSize struct {
	nodes  int
	cycles int // cycles per campaign, enough for quarantine to build up
	sample int // nodes the traced replays time per cycle
}

// defaultChaosSize is half of E12's 10⁶ nodes: there the probe-wheel
// blow-up cycle alone takes 7–8 s and a 25 s run holds a single
// campaign; at 5·10⁵ the blow-up cycle still costs 7× a median cycle and
// a run holds four or more campaigns.
func defaultChaosSize() chaosSize { return chaosSize{nodes: 500_000, cycles: 8, sample: 1 << 14} }

// chaosStormSeed fixes the fault storm. Severity is redrawn every cycle
// and drives how much work a cycle does (quarantine build-up, probes),
// so the storm is part of the workload's definition; the seed varies
// placements and every poll draw.
const chaosStormSeed = 12001

// chaosPolicy is E12's MAC policy: retries, probation and re-probe backoff.
var chaosPolicy = mac.PollPolicy{MaxRetries: 2, BackoffSlots: 8, DropAfter: 3,
	Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8}

// heroDivergenceBudget is DESIGN.md's bound on the rate of hero checks
// whose waveform SNR falls outside the abstract model's band.
const heroDivergenceBudget = 0.2

// heroAlpha is the false-alarm level of the budget check. A run holds
// only 16 checks; at the long-run rate measured at this commit (about
// 0.06) a 16-check window still reaches 4 divergences now and then, so a
// raw fraction over one run would fail a program that meets the budget.
const heroAlpha = 0.01

func chaosStorm() (faults.Scenario, error) { return faults.Parse("chaos", chaosStormSeed) }

// buildChaosFleet is the workload's set-up: E12's configuration at the
// workload's size — river, chaos faults with probation, rate adaptation
// and 2 hero links × 4 waveform rounds per cycle.
func buildChaosFleet(seed int64, nodes int) (*linksim.Fleet, error) {
	sc, err := chaosStorm()
	if err != nil {
		return nil, err
	}
	eng, err := faults.NewEngine(sc)
	if err != nil {
		return nil, err
	}
	f, err := linksim.NewFleet(linksim.Config{Nodes: nodes, Policy: chaosPolicy, Env: "river",
		Seed: seed + 4200, HeroLinks: 2, HeroRounds: 4})
	if err != nil {
		return nil, err
	}
	rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		return nil, err
	}
	f.EnableRateAdaptation(rc)
	f.SetFaultEngine(eng)
	f.SetWorkers(runtime.NumCPU())
	return f, nil
}

// checkChaosCycle checks one abstract-tier cycle's report.
func checkChaosCycle(rep linksim.CycleReport, nodes int) []string {
	var problems []string
	if rep.Live+rep.Quarantined+rep.Dropped != nodes {
		problems = append(problems, fmt.Sprintf("cycle %d: live %d + quarantined %d + dropped %d != %d nodes",
			rep.Cycle, rep.Live, rep.Quarantined, rep.Dropped, nodes))
	}
	if rep.Delivered > rep.Polled || rep.Delivered < 0 {
		problems = append(problems, fmt.Sprintf("cycle %d: delivered %d > polled %d", rep.Cycle, rep.Delivered, rep.Polled))
	}
	return problems
}

// checkHeroBudget checks the run's hero divergences against the budget:
// it fails when they are too many for a divergence rate within the
// budget — when a rate of exactly the budget would give this many or more
// with probability below heroAlpha (one-sided binomial test).
func checkHeroBudget(checks, diverged int) []string {
	if p := binomialTail(checks, diverged, heroDivergenceBudget); p < heroAlpha {
		return []string{fmt.Sprintf("hero divergence %d/%d: P(≥%d | rate %.2f) = %.2g, above the budget",
			diverged, checks, diverged, heroDivergenceBudget, p)}
	}
	return nil
}

// binomialTail returns P(X ≥ k) for X ~ Binomial(n, p).
func binomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	var tail float64
	for i := k; i <= n; i++ {
		lg1, _ := math.Lgamma(float64(n + 1))
		lg2, _ := math.Lgamma(float64(i + 1))
		lg3, _ := math.Lgamma(float64(n - i + 1))
		tail += math.Exp(lg1 - lg2 - lg3 + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return tail
}

func runChaosFleet(size chaosSize, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	var setups []float64
	var f *linksim.Fleet
	for i := 0; i < setupRuns; i++ {
		if f != nil {
			f.Close()
			f = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if f, err = buildChaosFleet(seed, size.nodes); err != nil {
			return nil, err
		}
		setups = append(setups, scaledSetup(time.Since(t)))
	}
	res.e2e["setup_s"] = median(setups)
	res.samples["setup_s"] = setups

	budget, least := seconds, minReps
	if traced {
		budget, least = 0, 1 // one campaign: the baseline of trace_overhead_pct
	}
	// Every campaign runs on a fresh fleet of the same seed, so its k-th
	// cycle repeats the first campaign's k-th cycle: same work, same report.
	reports := make([]linksim.CycleReport, size.cycles)
	var cycles, builds []float64
	var cpu, last time.Duration
	var ref refMeter
	var heroChecks, heroDiverged int
	heap := startHeapSampler()
	start := time.Now()
	for k := 0; timeLeft(start, budget, last, k, least); k++ {
		campaign := time.Now()
		if k > 0 {
			f.Close()
			f = nil
			runtime.GC() // the previous fleet's columns must not count towards this campaign's heap
			t := time.Now()
			var err error
			if f, err = buildChaosFleet(seed, size.nodes); err != nil {
				return nil, err
			}
			builds = append(builds, time.Since(t).Seconds())
		}
		for c := 0; c < size.cycles; c++ {
			c0 := cpuTime()
			t := time.Now()
			rep, err := f.RunCycle()
			d := time.Since(t)
			cpu += cpuTime() - c0
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, float64(d)/1e6)
			ref.sampleAll(refCount(d))
			res.attempted++
			p := checkChaosCycle(rep, size.nodes)
			if k == 0 {
				reports[c] = rep
			} else if rep != reports[c] {
				p = append(p, fmt.Sprintf("campaign %d cycle %d: report %+v differs from the first campaign's %+v", k, c, rep, reports[c]))
			}
			if len(p) > 0 {
				res.failed++
				res.problems = append(res.problems, p...)
			}
			heroChecks += rep.Hero.Checks
			heroDiverged += rep.Hero.Diverged
		}
		last = time.Since(campaign)
	}
	f.Close()
	f = nil
	res.e2e["heap_peak_mb"] = heap.peakMB()
	res.problems = append(res.problems, checkHeroBudget(heroChecks, heroDiverged)...)
	res.e2e["op_ms"] = mean(cycles) / ref.slowdown()
	res.samples["campaign_build_s"] = builds
	res.samples["cycle_ms"] = cycles
	sw, ch := ref.halves()
	res.samples["ref_slowdown_sweep_chase"] = []float64{sw, ch}
	res.samples["hero_checks_diverged"] = []float64{float64(heroChecks), float64(heroDiverged)}
	if !traced {
		return res, nil
	}
	res.layer["cpu_ns_per_unit"] = float64(cpu) / float64(len(cycles)*size.nodes)
	runtime.GC()
	return res, tracedChaosCampaign(res, seed, size, mean(cycles))
}

// chaosReplay owns the structures the traced run times the abstract
// tier's per-poll public calls on, between cycles: the table lookups
// (Table.Resolve + Table.Lookup), the MAC fold (NodeColumns /
// PollPolicy Fold*At), the rate controller's Observe, and a hero check's
// waveform work (a fresh core.System per check, 4 rounds).
type chaosReplay struct {
	table *linksim.Table
	env   int
	cols  *mac.NodeColumns
	rc    *mac.RateController
	storm faults.Scenario
	nodes []int
}

// lookupSink keeps the timed lookups' results live.
var lookupSink float64

func (r *chaosReplay) lookupNs(f *linksim.Fleet, severity float64) float64 {
	t := time.Now()
	var sum float64
	for _, i := range r.nodes {
		c := r.table.Resolve(f.NodeRange(i), f.NodeOrientation(i))
		sum += r.table.Lookup(r.env, c, severity).PDeliver
	}
	d := time.Since(t)
	lookupSink = sum
	return float64(d) / float64(len(r.nodes))
}

// foldNs folds one synthetic outcome per sampled node, delivering the
// cycle's delivered share of them.
func (r *chaosReplay) foldNs(cycle int, deliveredShare float64) float64 {
	t := time.Now()
	for j := range r.nodes {
		i := j % r.cols.Len()
		switch {
		case float64(j%1000) < 1000*deliveredShare:
			if r.cols.Quarantined(i) {
				r.cols.RestoreAt(i, cycle)
			}
			r.cols.FoldDeliveredAt(i, 10)
		case r.cols.Quarantined(i) || r.cols.Dropped(i):
			chaosPolicy.FoldProbeFailureAt(r.cols, i, cycle)
		default:
			chaosPolicy.FoldPollFailureAt(r.cols, i, cycle)
		}
	}
	return float64(time.Since(t)) / float64(len(r.nodes))
}

func (r *chaosReplay) observeNs() float64 {
	t := time.Now()
	for j := range r.nodes {
		r.rc.Observe(float64(6 + j%12))
	}
	return float64(time.Since(t)) / float64(len(r.nodes))
}

// heroMs times one hero-style waveform check at node i's geometry.
func (r *chaosReplay) heroMs(f *linksim.Fleet, i, cycle int, seed int64) (float64, error) {
	t := time.Now()
	sc := r.storm
	sys, _, err := newSystem(roundSite{cfg: core.SystemConfig{Env: ocean.CharlesRiver(),
		Range: f.NodeRange(i), Orientation: f.NodeOrientation(i), NodeAddr: 1, Seed: seed + int64(cycle)}, scene: &sc})
	if err != nil {
		return 0, err
	}
	sys.SetFaultRound(cycle)
	for k := 0; k < 4; k++ {
		sys.WakeNode(30)
		if _, err := sys.RunRound(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t)) / 1e6, nil
}

// tracedChaosCampaign runs one campaign on a fresh fleet, timing each
// RunCycle (with its allocations) and, between cycles, the per-poll
// public calls on the cycle's counts; the remainder of the cycle is
// linksim.cycle_self_ms — where the unexported probe calendar lands.
func tracedChaosCampaign(res *result, seed int64, size chaosSize, baselineMs float64) error {
	f, err := buildChaosFleet(seed, size.nodes)
	if err != nil {
		return err
	}
	defer f.Close()
	storm, err := chaosStorm()
	if err != nil {
		return err
	}
	table := linksim.DefaultTable()
	env, err := table.EnvIndex("river")
	if err != nil {
		return err
	}
	rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		return err
	}
	rp := &chaosReplay{table: table, env: env, cols: mac.NewNodeColumns(size.sample), rc: rc, storm: storm}
	stride := max(1, size.nodes/size.sample)
	for i := 0; i < size.nodes && len(rp.nodes) < size.sample; i += stride {
		rp.nodes = append(rp.nodes, i)
	}
	sp := res.spans
	workers := float64(runtime.NumCPU())
	var cycleMs, childMs, allocsN, bytesN []float64
	var polled, delivered, retries, probes, checks, diverged, quarantined int
	for c := 0; c < size.cycles; c++ {
		m0, b0 := allocs()
		t := time.Now()
		rep, err := f.RunCycle()
		d := time.Since(t)
		m1, b1 := allocs()
		if err != nil {
			return err
		}
		sp.add("linksim.cycle", "", d)
		allocsN = append(allocsN, float64(m1-m0))
		bytesN = append(bytesN, float64(b1-b0))
		cycleMs = append(cycleMs, float64(d)/1e6)

		share := 0.0
		if rep.Polled > 0 {
			share = float64(rep.Delivered) / float64(rep.Polled)
		}
		lookup := rp.lookupNs(f, rep.Severity)
		fold := rp.foldNs(c, share)
		observe := rp.observeNs()
		hero, err := rp.heroMs(f, rp.nodes[c%len(rp.nodes)], c, seed)
		if err != nil {
			return err
		}
		// Per-cycle attribution: lookups run in the parallel execution
		// phase; the fold and the rate controller run serially; each
		// hero check is serial waveform work.
		parts := map[string]float64{
			"linksim.lookup": lookup * float64(rep.Polled) / workers / 1e6,
			"mac.fold":       fold * float64(rep.Polled) / 1e6,
			"mac.rate_observe": observe *
				float64(rep.Delivered-rep.Restored) / 1e6,
			"core.hero_check": hero * float64(rep.Hero.Checks),
		}
		var sum float64
		for name, ms := range parts {
			sp.add(name, "linksim.cycle", time.Duration(ms*1e6))
			sum += ms
		}
		childMs = append(childMs, sum)
		sp.add("linksim.unit.lookup", "", time.Duration(lookup))
		sp.add("linksim.unit.fold", "", time.Duration(fold))
		sp.add("linksim.unit.observe", "", time.Duration(observe))
		sp.add("linksim.unit.hero_check", "", time.Duration(hero*1e6))

		polled += rep.Polled
		delivered += rep.Delivered
		retries += rep.Retries
		probes += rep.Probes
		checks += rep.Hero.Checks
		diverged += rep.Hero.Diverged
		quarantined = rep.Quarantined
	}
	n := float64(size.cycles)
	L := res.layer
	L["linksim.cycle_ms"] = mean(cycleMs)
	L["linksim.cycle_max_ms"] = percentile(cycleMs, 100)
	L["linksim.cycle_self_ms"] = mean(cycleMs) - mean(childMs)
	L["linksim.lookup_ns"] = float64(sp.mean("linksim.unit.lookup"))
	L["mac.fold_ns"] = float64(sp.mean("linksim.unit.fold"))
	L["mac.rate_observe_ns"] = float64(sp.mean("linksim.unit.observe"))
	L["linksim.hero_check_ms"] = float64(sp.mean("linksim.unit.hero_check")) / 1e6
	L["linksim.polls_per_cycle"] = float64(polled) / n
	L["linksim.retries_per_cycle"] = float64(retries) / n
	L["linksim.probes_per_cycle"] = float64(probes) / n
	L["linksim.quarantined"] = float64(quarantined)
	if polled > 0 {
		L["linksim.delivery_ratio"] = float64(delivered) / float64(polled)
	}
	L["linksim.hero_checks"] = float64(checks)
	L["linksim.hero_diverged"] = float64(diverged)
	L["linksim.allocs_per_cycle"] = mean(allocsN)
	L["linksim.bytes_per_cycle"] = mean(bytesN)
	L["trace_overhead_pct"] = 100 * (mean(cycleMs) - baselineMs) / baselineMs
	res.reconcile(reconLine{parent: "linksim.cycle", parentMs: mean(cycleMs), childMs: mean(childMs), selfOK: true})
	return nil
}
