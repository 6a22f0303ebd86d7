package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"vab/internal/core"
	"vab/internal/mac"
	"vab/internal/node"
	"vab/internal/ocean"
)

// waveFleetSize is the fleet_waveform_64 shape; tests shrink it.
type waveFleetSize struct {
	nodes   int
	cycles  int // cycles per campaign: a fresh fleet runs this many
	profile time.Duration
	speedN  int // cycles timed at 1 and nproc workers for mac.pool_speedup
}

func defaultWaveFleetSize() waveFleetSize {
	return waveFleetSize{nodes: 64, cycles: 10, profile: 2 * time.Second, speedN: 3}
}

// e1Orients is the E1 orientation set (and the calibrated one).
var e1Orients = []float64{0, 30 * math.Pi / 180, 60 * math.Pi / 180}

// wavePlacements deploys n nodes on a fixed grid over the calibrated
// 25–300 m span — one per 275/n m band, at the band's centre, with the E1
// orientations dealt in turn — and the seed assigns the grid positions to
// node addresses. A cycle's work (rounds, retry waves) depends on how
// many links are hard, so every seed deploys the same mix; the seed
// varies which node holds which position and, through the fleet seed,
// every channel, noise and sensor draw.
func wavePlacements(seed int64, n int) []core.NodePlacement {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.NodePlacement, n)
	for i, k := range rng.Perm(n) {
		out[i] = core.NodePlacement{Addr: byte(i + 1), Range: 25 + 275*(float64(k)+0.5)/float64(n),
			Orientation: e1Orients[k%len(e1Orients)]}
	}
	return out
}

// waveBase is the fleet's shared system configuration (vabgw's).
func waveBase(seed int64) (core.SystemConfig, error) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		return core.SystemConfig{}, err
	}
	return core.SystemConfig{Env: env, Design: d, Range: 1, Seed: 1000 + seed*7919}, nil
}

// buildWaveFleet is the workload's set-up: the fleet, its pool width and
// the pre-campaign soak.
func buildWaveFleet(seed int64, n, workers int) (*core.Fleet, error) {
	base, err := waveBase(seed)
	if err != nil {
		return nil, err
	}
	f, err := core.NewFleet(base, wavePlacements(seed, n), mac.DefaultPollPolicy())
	if err != nil {
		return nil, err
	}
	f.SetWorkers(workers)
	f.Deploy(3600)
	return f, nil
}

// cycleDigest fingerprints one cycle's output for the worker-count check.
func cycleDigest(readings []core.FleetReading, rep mac.CycleReport) [32]byte {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, [4]int64{int64(rep.Polled), int64(rep.Delivered), int64(rep.Retries), int64(rep.Probes)})
	addrs := make([]int, 0, len(rep.Payloads))
	for a := range rep.Payloads {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		h.Write([]byte{byte(a)})
		h.Write(rep.Payloads[byte(a)])
	}
	for _, r := range readings {
		fmt.Fprintf(h, "%d %+v %v\n", r.Addr, r.Reading, r.SNRdB)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// checkWaveCycle checks one fleet cycle: every delivered payload decodes
// and comes from an address polled this cycle, every returned reading
// belongs to a delivered payload, delivered ≤ polled, and the report
// conserves nodes (each is live, quarantined or dropped, and every node
// that was on the schedule before the cycle was polled).
func checkWaveCycle(readings []core.FleetReading, rep mac.CycleReport, before, after []mac.NodeState, nodes int) []string {
	var problems []string
	polled := map[byte]bool{}
	for i := range after {
		if i < len(before) && after[i].Polls > before[i].Polls {
			polled[after[i].Addr] = true
		}
	}
	var scratch []node.Reading
	for addr, p := range rep.Payloads {
		var ok bool
		if scratch, ok = node.AppendDecodedReadings(scratch[:0], p); !ok {
			problems = append(problems, fmt.Sprintf("payload from node %d does not decode", addr))
		}
		if !polled[addr] {
			problems = append(problems, fmt.Sprintf("payload from node %d, which was not polled", addr))
		}
	}
	for _, r := range readings {
		if _, ok := rep.Payloads[r.Addr]; !ok {
			problems = append(problems, fmt.Sprintf("reading from node %d without a delivered payload", r.Addr))
		}
	}
	if rep.Delivered > rep.Polled || len(rep.Payloads) != rep.Delivered {
		problems = append(problems, fmt.Sprintf("delivered %d, payloads %d, polled %d", rep.Delivered, len(rep.Payloads), rep.Polled))
	}
	var live, quar, drop, scheduled int
	for _, st := range after {
		switch {
		case st.Dropped:
			drop++
		case st.Quarantined:
			quar++
		default:
			live++
		}
	}
	for _, st := range before {
		if !st.Dropped && !st.Quarantined {
			scheduled++
		}
	}
	if live+quar+drop != nodes || len(after) != nodes {
		problems = append(problems, fmt.Sprintf("live %d + quarantined %d + dropped %d != %d nodes", live, quar, drop, nodes))
	}
	if len(polled) < scheduled {
		problems = append(problems, fmt.Sprintf("%d nodes were on the schedule but only %d polled", scheduled, len(polled)))
	}
	return problems
}

func runWaveFleet(size waveFleetSize, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	workers := runtime.NumCPU()
	var setups, cycles []float64
	var cpu time.Duration
	var last time.Duration
	budget, least := seconds, minReps
	if traced {
		budget, least = 0, 1 // one campaign: the baseline of trace_overhead_pct
	}
	// Every campaign runs on a fresh fleet of the same seed, so its k-th
	// cycle repeats the first campaign's k-th cycle: same work, same output.
	digests := make([][32]byte, size.cycles)
	var ref refMeter
	var fleetAllocs, fleetBytes uint64
	heap := startHeapSampler()
	start := time.Now()
	for k := 0; timeLeft(start, budget, last, k, least); k++ {
		campaign := time.Now()
		t := time.Now()
		f, err := buildWaveFleet(seed, size.nodes, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, scaledSetup(time.Since(t)))
		for c := 0; c < size.cycles; c++ {
			before := f.Nodes()
			m0, b0 := uint64(0), uint64(0)
			if traced {
				m0, b0 = allocs()
			}
			c0 := cpuTime()
			t := time.Now()
			readings, rep, err := f.RunCycle()
			d := time.Since(t)
			cpu += cpuTime() - c0
			if err != nil {
				return nil, err
			}
			if traced {
				m1, b1 := allocs()
				fleetAllocs += m1 - m0
				fleetBytes += b1 - b0
			}
			cycles = append(cycles, float64(d)/1e6)
			ref.sampleAll(refCount(d))
			res.attempted++
			p := checkWaveCycle(readings, rep, before, f.Nodes(), size.nodes)
			if dg := cycleDigest(readings, rep); k == 0 {
				digests[c] = dg
			} else if dg != digests[c] {
				p = append(p, fmt.Sprintf("campaign %d cycle %d differs from the first campaign's", k, c))
			}
			if len(p) > 0 {
				res.failed++
				res.problems = append(res.problems, p...)
			}
		}
		last = time.Since(campaign)
	}
	res.e2e["heap_peak_mb"] = heap.peakMB()
	for len(setups) < setupRuns {
		t := time.Now()
		if _, err := buildWaveFleet(seed, size.nodes, workers); err != nil {
			return nil, err
		}
		setups = append(setups, scaledSetup(time.Since(t)))
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["op_ms"] = mean(cycles) / ref.slowdown()
	res.samples["setup_s"] = setups
	res.samples["cycle_ms"] = cycles
	sw, ch := ref.halves()
	res.samples["ref_slowdown_sweep_chase"] = []float64{sw, ch}

	// The first cycle's output must not depend on the pool width; a traced
	// run also times speedN serial cycles for mac.pool_speedup.
	serial, err := buildWaveFleet(seed, size.nodes, 1)
	if err != nil {
		return nil, err
	}
	var serialMs []float64
	for c := 0; c < max(1, size.speedN) && (c == 0 || traced); c++ {
		t := time.Now()
		readings, rep, err := serial.RunCycle()
		if err != nil {
			return nil, err
		}
		serialMs = append(serialMs, float64(time.Since(t))/1e6)
		if c == 0 {
			res.check(cycleDigest(readings, rep) == digests[0],
				"first cycle differs between 1 and %d workers", workers)
		}
	}
	if !traced {
		return res, nil
	}

	L := res.layer
	n := float64(len(cycles))
	L["cpu_ns_per_unit"] = float64(cpu) / (n * float64(size.nodes))
	L["core.fleet_allocs_per_cycle"] = float64(fleetAllocs) / n
	L["core.fleet_mb_per_cycle"] = float64(fleetBytes) / n / 1e6
	L["mac.pool_speedup"] = mean(serialMs) / mean(cycles[:len(serialMs)])
	tracedMs, err := tracedWaveCampaign(res, seed, size)
	if err != nil {
		return nil, err
	}
	L["trace_overhead_pct"] = 100 * (tracedMs - mean(cycles)) / mean(cycles)

	base, err := waveBase(seed)
	if err != nil {
		return nil, err
	}
	var sites []roundSite
	for _, p := range wavePlacements(seed, size.nodes)[:min(8, size.nodes)] {
		cfg := base
		cfg.NodeAddr, cfg.Range, cfg.Orientation = p.Addr, p.Range, p.Orientation
		sites = append(sites, roundSite{cfg: cfg})
	}
	return res, profileRounds(res, sites, size.profile)
}

// tracedTrx is core.Fleet's transceiver recomposed from public calls
// (System.WakeNode + System.RunRound per poll) so each poll is a timed
// child span of the mac cycle. Poll intervals are kept to measure how
// much of the cycle some round was running (their union).
type tracedTrx struct {
	f   *core.Fleet
	sp  *spanSet
	ivs *intervals
}

func (t tracedTrx) Poll(addr byte) (mac.RoundResult, error) {
	s := t.f.System(addr)
	if s == nil {
		return mac.RoundResult{}, fmt.Errorf("unknown node %d", addr)
	}
	s.WakeNode(30)
	t0 := time.Now()
	rep, err := s.RunRound()
	d := time.Since(t0)
	t.sp.add("core.round(poll)", "mac.cycle", d)
	t.ivs.add(t0, d)
	if err != nil || !rep.Rx.OK() {
		return mac.RoundResult{}, err
	}
	snr := 0.0
	if rep.ToneSNREst > 0 {
		snr = 10 * math.Log10(rep.ToneSNREst)
	}
	return mac.RoundResult{OK: true, Payload: rep.Rx.Frame.Payload, SNRdB: snr}, nil
}

// tracedWaveCampaign runs one campaign on a fresh fleet's systems through
// a benchmark-owned mac.Scheduler and tracedTrx, timing each cycle, its
// polls and the reading assembly, and returns the mean traced cycle in ms.
func tracedWaveCampaign(res *result, seed int64, size waveFleetSize) (float64, error) {
	f, err := buildWaveFleet(seed, size.nodes, runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	ivs := &intervals{}
	sched, err := mac.NewScheduler(tracedTrx{f: f, sp: res.spans, ivs: ivs}, mac.DefaultPollPolicy())
	if err != nil {
		return 0, err
	}
	for _, p := range wavePlacements(seed, size.nodes) {
		sched.AddNode(p.Addr)
	}
	sched.SetWorkers(runtime.NumCPU())
	sp := res.spans
	var total, busy time.Duration
	var polls, retries, polled, delivered int
	var scratch []node.Reading
	for c := 0; c < size.cycles; c++ {
		ivs.reset()
		t0 := time.Now()
		rep, err := sched.RunCycle()
		dc := time.Since(t0)
		if err != nil {
			return 0, err
		}
		sp.add("mac.cycle", "fleet.cycle", dc)
		t := time.Now()
		for _, p := range rep.Payloads {
			scratch, _ = node.AppendDecodedReadings(scratch[:0], p)
		}
		sp.add("core.assemble", "fleet.cycle", time.Since(t))
		d := time.Since(t0)
		sp.add("fleet.cycle", "", d)
		total += d
		busy += ivs.union()
		polled += rep.Polled
		delivered += rep.Delivered
		retries += rep.Retries
		polls += rep.Polled + rep.Retries
	}
	n := float64(size.cycles)
	L := res.layer
	L["mac.cycle_ms"] = float64(sp.mean("mac.cycle")) / 1e6
	L["mac.polls_per_cycle"] = float64(polls) / n
	L["mac.retries_per_cycle"] = float64(retries) / n
	if polled > 0 {
		L["mac.delivery_ratio"] = float64(delivered) / float64(polled)
	}
	res.reconcile(reconLine{parent: "mac.cycle", parentMs: L["mac.cycle_ms"], childMs: float64(busy) / n / 1e6})
	return float64(total) / n / 1e6, nil
}

// intervals collects [start, start+d) spans from concurrent workers.
type intervals struct {
	mu sync.Mutex
	iv [][2]int64
}

func (v *intervals) add(t time.Time, d time.Duration) {
	v.mu.Lock()
	v.iv = append(v.iv, [2]int64{t.UnixNano(), t.UnixNano() + int64(d)})
	v.mu.Unlock()
}

func (v *intervals) reset() { v.mu.Lock(); v.iv = v.iv[:0]; v.mu.Unlock() }

// union returns the time covered by at least one interval.
func (v *intervals) union() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	sort.Slice(v.iv, func(i, j int) bool { return v.iv[i][0] < v.iv[j][0] })
	var total, end int64
	for _, x := range v.iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = max(end, x[1])
	}
	return time.Duration(total)
}
