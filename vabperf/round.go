package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vab/internal/channel"
	"vab/internal/core"
	"vab/internal/faults"
	"vab/internal/link"
	"vab/internal/node"
	"vab/internal/phy"
	"vab/internal/telemetry"
)

// roundSite is one deployment the round profiler measures: a system
// configuration plus the fault scenario it runs under (nil = calm).
type roundSite struct {
	cfg   core.SystemConfig
	scene *faults.Scenario
}

// recomposed replays core.System.RunRound from the public calls it is
// made of — Link.Rebuild, Reader.QueryWaveform, Link.DownlinkInto,
// OOKDemodulator.DemodChips + DecodeFrame, Node.HandleQuery,
// Link.RoundTripInto, Reader.Decode — so each can be timed as a child of
// the round. It mirrors RunRound's mooring sway and fault application
// with its own draws: the timings, not the bits, are what it reproduces.
type recomposed struct {
	sys    *core.System
	design *core.VanAttaDesign
	cfg    core.SystemConfig
	eng    *faults.Engine
	round  int
	sway   *rand.Rand
	seed   int64
	seq    byte
	ook    *phy.OOKDemodulator
	gain   complex128
	deltaG float64
	dead   float64
	clock  float64

	dl, tx, gamma, capture []complex128
	readings               []node.Reading

	// Benchmark-owned uplink chain for the phy/link breakdown of Decode.
	demod *phy.Demodulator
	canc  *phy.AdaptiveCanceller
	y     []complex128
}

// newSystem builds a System for site with its own design copy (faults
// mutate the array) and returns the design too.
func newSystem(site roundSite) (*core.System, *core.VanAttaDesign, error) {
	cfg := site.cfg
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, cfg.Env, core.DefaultCarrierHz)
	if err != nil {
		return nil, nil, err
	}
	cfg.Design = d
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	if site.scene != nil {
		eng, err := faults.NewEngine(*site.scene)
		if err != nil {
			return nil, nil, err
		}
		sys.SetFaultEngine(eng)
	}
	sys.WakeNode(3600)
	return sys, d, nil
}

func newRecomposed(site roundSite) (*recomposed, error) {
	sys, d, err := newSystem(roundSite{cfg: site.cfg})
	if err != nil {
		return nil, err
	}
	cfg := site.cfg
	cfg.Design = d
	cfg.Reader = sys.Reader.Config()
	if cfg.ReaderDepth == 0 {
		cfg.ReaderDepth = 0.4 * cfg.Env.Depth
	}
	if cfg.NodeDepth == 0 {
		cfg.NodeDepth = 0.6 * cfg.Env.Depth
	}
	r := &recomposed{sys: sys, design: d, cfg: cfg, seed: cfg.Seed,
		sway:   rand.New(rand.NewSource(cfg.Seed ^ 0x5f3759df)),
		deltaG: 2 * d.ModulationDepth(core.DefaultCarrierHz)}
	if site.scene != nil {
		if r.eng, err = faults.NewEngine(*site.scene); err != nil {
			return nil, err
		}
	}
	if r.ook, err = phy.NewOOKDemodulator(cfg.Reader.PHY); err != nil {
		return nil, err
	}
	if r.demod, err = phy.NewDemodulator(cfg.Reader.PHY); err != nil {
		return nil, err
	}
	r.canc = phy.NewAdaptiveCanceller(0.05)
	r.refreshGain()
	return r, nil
}

func (r *recomposed) refreshGain() {
	r.gain = r.design.ScatterField(core.DefaultCarrierHz, r.cfg.Orientation) *
		complex(math.Pow(10, -core.StructuralLossDB/20), 0)
}

func grow(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// applyPlan applies the sticky and per-round parts of a fault plan and
// returns the round's scatter gain.
func (r *recomposed) applyPlan(plan *faults.RoundPlan) (complex128, error) {
	if plan.DeadFrac != r.dead {
		arr := r.design.FaultArray()
		arr.ClearFaults()
		k := int(math.Round(plan.DeadFrac * float64(arr.N())))
		for _, i := range faults.PickElements(arr.N(), k, plan.FailSeed) {
			arr.SetElementFault(i, true)
		}
		r.refreshGain()
		r.dead = plan.DeadFrac
	}
	if plan.Brownout {
		r.sys.Node.InjectBrownout()
	}
	if plan.ClockPPMDelta != r.clock {
		if err := r.sys.Node.SetClockPPM(r.cfg.NodeClockPPM + plan.ClockPPMDelta); err != nil {
			return 0, err
		}
		r.clock = plan.ClockPPMDelta
	}
	if plan.ShadowDB > 0 {
		return r.gain * complex(math.Pow(10, -2*plan.ShadowDB/20), 0), nil
	}
	return r.gain, nil
}

func (r *recomposed) jitter(v, lo, hi float64) float64 {
	j := v + r.sway.NormFloat64()*0.05
	return math.Min(math.Max(j, lo), hi)
}

// run executes one recomposed round, recording each child span under the
// parent "round" and returning the whole round's wall time.
func (r *recomposed) run(sp *spanSet) (time.Duration, error) {
	const parent = "core.round(recomposed)"
	t0 := time.Now()
	cfg := r.cfg.Reader
	var plan faults.RoundPlan
	gain := r.gain
	if r.eng != nil {
		plan = r.eng.Plan(r.round)
		r.round++
		var err error
		if gain, err = r.applyPlan(&plan); err != nil {
			return 0, err
		}
	}

	r.seed++
	geo := channel.Geometry{
		ReaderDepth: r.jitter(r.cfg.ReaderDepth, 0.3, r.cfg.Env.Depth-0.1),
		NodeDepth:   r.jitter(r.cfg.NodeDepth, 0.3, r.cfg.Env.Depth-0.1),
		Range:       r.jitter(r.cfg.Range, 1, math.Inf(1)),
	}
	t := time.Now()
	err := r.sys.Link.Rebuild(geo, r.seed)
	sp.add("channel.rebuild", parent, time.Since(t))
	if err != nil {
		return 0, err
	}

	t = time.Now()
	qw, _, err := r.sys.Reader.QueryWaveform(r.cfg.NodeAddr, r.seq)
	sp.add("reader.query", parent, time.Since(t))
	if err != nil {
		return 0, err
	}
	r.seq++

	r.dl = grow(r.dl, len(qw))
	t = time.Now()
	atNode := r.sys.Link.DownlinkInto(r.dl, qw)
	sp.add("channel.downlink", parent, time.Since(t))

	t = time.Now()
	chips, err := r.ook.DemodChips(atNode, 0, cfg.DownlinkCodec.ChipLength(0))
	var qf *link.Frame
	if err == nil {
		qf, _, err = cfg.DownlinkCodec.DecodeFrame(chips)
	}
	sp.add("phy.ook_demod", parent, time.Since(t))
	if err != nil {
		return time.Since(t0), nil // query lost in flight, as RunRound reports it
	}

	t = time.Now()
	gammaBits, err := r.sys.Node.HandleQuery(qf)
	sp.add("node.handle_query", parent, time.Since(t))
	if err != nil {
		return 0, err
	}
	if gammaBits == nil {
		return time.Since(t0), nil // node silent
	}

	spc := cfg.PHY.SamplesPerChip()
	pad := 4 * spc
	total := pad + len(gammaBits) + 4*spc
	r.tx = grow(r.tx, total)
	r.sys.Reader.CarrierEnvelopeInto(r.tx)
	r.gamma = grow(r.gamma, total)
	for i := range r.gamma {
		r.gamma[i] = 0
	}
	for i, g := range gammaBits {
		r.gamma[pad+i] = complex(r.deltaG*g, 0)
	}
	r.capture = grow(r.capture, total)
	t = time.Now()
	capture, err := r.sys.Link.RoundTripInto(r.capture, r.tx, r.gamma, gain)
	sp.add("channel.roundtrip", parent, time.Since(t))
	if err != nil {
		return 0, err
	}
	fs := cfg.PHY.SampleRate
	for _, b := range plan.Bursts {
		r.sys.Link.InjectBurst(capture, int(b.StartFrac*float64(len(capture))), int(b.LenSec*fs), b.PowerDB)
	}

	t = time.Now()
	rep := r.sys.Reader.Decode(capture, r.tx, node.PayloadSize)
	sp.add("reader.decode", parent, time.Since(t))
	if rep.OK() {
		r.readings, _ = node.AppendDecodedReadings(r.readings[:0], rep.Frame.Payload)
	}
	wall := time.Since(t0)

	r.uplinkBreakdown(sp, capture)
	return wall, nil
}

// uplinkBreakdown times Decode's phy and link stages on the same capture
// through a benchmark-owned demodulator and codec (outside the round's
// wall time): preamble acquisition, chip demodulation and frame decode.
func (r *recomposed) uplinkBreakdown(sp *spanSet, capture []complex128) {
	const parent = "reader.decode"
	cfg := r.cfg.Reader
	r.y = grow(r.y, len(capture))
	copy(r.y, capture)
	r.canc.Reset()
	r.canc.Prime(r.y, r.tx)
	y := r.demod.Suppress(r.canc.Process(r.y, r.tx))
	t := time.Now()
	acq, err := r.demod.Acquire(y, cfg.AcquireThreshold)
	sp.add("phy.acquire", parent, time.Since(t))
	if err != nil {
		return
	}
	nChips := cfg.UplinkCodec.ChipLength(node.PayloadSize)
	t = time.Now()
	acq = r.demod.RefineTiming(y, acq, min(nChips, 24))
	soft, err := r.demod.DemodChips(y, acq, nChips)
	sp.add("phy.demod", parent, time.Since(t))
	if err != nil {
		return
	}
	t = time.Now()
	_, _, _ = cfg.UplinkCodec.DecodeFrame(phy.HardChips(soft))
	sp.add("link.decode", parent, time.Since(t))
}

// profileRounds is the waveform-round part of a traced run. It alternates,
// on one goroutine, a RunRound on a System built for each site (the
// parent span, its allocations and the reader's outcome counters) with a
// recomposed round on a twin (the children), until budget elapses, and
// fills the core/channel/reader/node/phy/link per-layer metrics.
func profileRounds(res *result, sites []roundSite, budget time.Duration) error {
	reg := telemetry.NewRegistry()
	parents := make([]*core.System, len(sites))
	twins := make([]*recomposed, len(sites))
	for i, site := range sites {
		sys, _, err := newSystem(site)
		if err != nil {
			return err
		}
		sys.Reader.Instrument(reg)
		parents[i] = sys
		if twins[i], err = newRecomposed(site); err != nil {
			return err
		}
	}
	sp := res.spans
	var rounds, mallocs, bytes uint64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		i := k % len(sites)
		parents[i].WakeNode(30)
		m0, b0 := allocs()
		t := time.Now()
		if _, err := parents[i].RunRound(); err != nil {
			return fmt.Errorf("round profile: %w", err)
		}
		sp.add("core.round", "", time.Since(t))
		m1, b1 := allocs()
		rounds++
		mallocs += m1 - m0
		bytes += b1 - b0

		twins[i].sys.WakeNode(30)
		wall, err := twins[i].run(sp)
		if err != nil {
			return fmt.Errorf("recomposed round: %w", err)
		}
		sp.add("core.round(recomposed)", "core.round", wall)
	}
	ms := func(name string) float64 { return float64(sp.mean(name)) / 1e6 }
	us := func(name string) float64 { return float64(sp.mean(name)) / 1e3 }
	// Children that do not run every round (a lost query skips the rest)
	// are weighted by how often they ran.
	per := func(name string) float64 {
		n := sp.count("core.round(recomposed)")
		if n == 0 {
			return 0
		}
		return float64(sp.mean(name)) * float64(sp.count(name)) / float64(n) / 1e6
	}
	L := res.layer
	L["core.round_ms"] = ms("core.round")
	L["channel.rebuild_us"] = us("channel.rebuild")
	L["reader.query_us"] = us("reader.query")
	L["channel.downlink_us"] = us("channel.downlink")
	L["phy.ook_demod_us"] = us("phy.ook_demod")
	L["node.handle_query_us"] = us("node.handle_query")
	L["channel.roundtrip_ms"] = ms("channel.roundtrip")
	L["reader.decode_ms"] = ms("reader.decode")
	L["phy.acquire_ms"] = ms("phy.acquire")
	L["phy.demod_us"] = us("phy.demod")
	L["link.decode_us"] = us("link.decode")
	children := per("channel.rebuild") + per("reader.query") + per("channel.downlink") +
		per("phy.ook_demod") + per("node.handle_query") + per("channel.roundtrip") + per("reader.decode")
	L["core.round_self_us"] = (L["core.round_ms"] - children) * 1e3
	L["core.allocs_per_round"] = float64(mallocs) / float64(rounds)
	L["core.bytes_per_round"] = float64(bytes) / float64(rounds)
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	if acq := counter("vab_reader_acquire_total"); acq > 0 {
		L["reader.frame_ok_ratio"] = counter("vab_reader_frames_total") / acq
		L["reader.acquire_fail_ratio"] = counter("vab_reader_acquire_failures_total") / acq
	}
	L["reader.reacquires_per_round"] = counter("vab_reader_reacquire_attempts_total") / float64(rounds)
	res.reconcile(reconLine{parent: "core.round", parentMs: L["core.round_ms"], childMs: children})
	return nil
}
