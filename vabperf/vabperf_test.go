package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"vab/internal/core"
	"vab/internal/linksim"
	"vab/internal/mac"
)

// TestSpecMatchesBenchmarkJSON keeps the printed metrics and workloads in
// step with BENCHMARK.json, which the benchmark's runner reads.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", tc.kind, len(tc.json), len(tc.prog))
		}
		for i, m := range tc.json {
			p := tc.prog[i]
			if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %+v", tc.kind, i, m, p)
			}
		}
	}
}

// smoke runs a reduced workload untraced and traced and checks that it
// passes its output checks and reports every metric of each tier.
func smoke(t *testing.T, run func(traced bool) (*result, error), layerWant ...string) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		res, err := run(traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if len(res.problems) > 0 || res.failed != 0 || res.attempted == 0 {
			t.Fatalf("traced=%v: attempted %d failed %d problems %v", traced, res.attempted, res.failed, res.problems)
		}
		for _, m := range endToEnd {
			if v := res.e2e[m.name]; !(v > 0) {
				t.Errorf("traced=%v: end-to-end %s = %v, want > 0", traced, m.name, v)
			}
		}
		if !traced {
			continue
		}
		for _, name := range layerWant {
			if v := res.layer[name]; v == 0 {
				t.Errorf("per-layer %s = 0", name)
			}
		}
		var out strings.Builder
		if err := emit(&out, "smoke", 1, true, res); err != nil {
			t.Fatal(err)
		}
		for _, m := range perLayer {
			if !strings.Contains(out.String(), `"`+m.name+`"`) {
				t.Errorf("traced output lacks %s", m.name)
			}
		}
	}
}

func TestSmokeCalibrate(t *testing.T) {
	cfg := linksim.DefaultCalibrateConfig()
	cfg.Envs = []string{"river"}
	cfg.RangesM = []float64{25, 150}
	cfg.OrientsRad = cfg.OrientsRad[:1]
	cfg.Intensities = []float64{0, 1}
	cfg.RoundsPerCell = 3
	cfg.Workers = 2
	cfg.Seed = 2
	smoke(t, func(traced bool) (*result, error) {
		return runCalibrate(calibrateSize{cfg: cfg, profileShare: 1}, 3, 0.05, traced)
	}, "core.round_ms", "channel.roundtrip_ms", "reader.decode_ms", "core.allocs_per_round", "trace.reconcile_err_pct")
}

func TestSmokeWaveFleet(t *testing.T) {
	smoke(t, func(traced bool) (*result, error) {
		return runWaveFleet(waveFleetSize{nodes: 4, cycles: 2, profile: 50 * time.Millisecond, speedN: 1}, 5, 0.05, traced)
	}, "mac.cycle_ms", "mac.polls_per_cycle", "mac.pool_speedup", "core.fleet_allocs_per_cycle", "core.round_ms")
}

func TestSmokeChaosFleet(t *testing.T) {
	smoke(t, func(traced bool) (*result, error) {
		return runChaosFleet(chaosSize{nodes: 20000, cycles: 3, sample: 1024}, 9, 0.05, traced)
	}, "linksim.cycle_ms", "linksim.lookup_ns", "mac.fold_ns", "mac.rate_observe_ns", "linksim.hero_checks", "linksim.hero_check_ms")
}

func TestSmokeGateway(t *testing.T) {
	size := gatewaySize{sinks: 20, lowRate: 500, highRate: 8000, warmup: 50 * time.Millisecond,
		ladder: []float64{1}, rung: 200 * time.Millisecond}
	smoke(t, func(traced bool) (*result, error) {
		return runGateway(size, 4, 1.1, traced)
	}, "gateway.lat_p50_ms.low", "gateway.lat_p50_ms.high", "gateway.frames_sent", "gateway.batches",
		"gateway.deliver_ms", "gateway.decode_ns_per_reading", "gateway.sustained_readings_per_s.p99_le_20ms")
}

func copyTable(t *linksim.Table) *linksim.Table {
	c := *t
	c.Cells = append([]linksim.Cell(nil), t.Cells...)
	return &c
}

func TestCalibrationCheckCatchesFlippedCell(t *testing.T) {
	ref := linksim.DefaultTable()
	if bad, p := checkCalibration(copyTable(ref), ref); bad != 0 || len(p) != 0 {
		t.Fatalf("reference against itself: %d bad cells, %v", bad, p)
	}
	flipped := copyTable(ref)
	flipped.Cells[17].PDeliver = 1 - flipped.Cells[17].PDeliver
	if bad, _ := checkCalibration(flipped, ref); bad != 1 {
		t.Fatalf("flipped cell: %d bad cells, want 1", bad)
	}
}

func TestCalibrationCheckCatchesNonMonotoneRange(t *testing.T) {
	tab := copyTable(linksim.DefaultTable())
	if bad, p := checkCalibration(tab, nil); bad != 0 || len(p) != 0 {
		t.Fatalf("committed table: %d bad cells, %v", bad, p)
	}
	// The far end of a series delivering better than its nearer cell.
	last := len(tab.RangesM) - 1
	tab.Cells[last].PDeliver = tab.Cells[last-1].PDeliver + 0.1
	if bad, _ := checkCalibration(tab, nil); bad == 0 {
		t.Fatal("non-monotone range series passed")
	}
}

func TestCalibrationReferenceOnlyForItsCampaign(t *testing.T) {
	cfg := linksim.DefaultCalibrateConfig()
	if calibrationReference(cfg) == nil {
		t.Fatal("the committed campaign has no reference")
	}
	cfg.Seed++
	if calibrationReference(cfg) != nil {
		t.Fatal("another seed compared against the committed table")
	}
}

func TestWaveCycleChecks(t *testing.T) {
	f, err := buildWaveFleet(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := f.Nodes()
	readings, rep, err := f.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	after := f.Nodes()
	if p := checkWaveCycle(readings, rep, before, after, 3); len(p) > 0 {
		t.Fatalf("clean cycle: %v", p)
	}
	clone := func() mac.CycleReport {
		c := rep
		c.Payloads = map[byte][]byte{}
		for a, p := range rep.Payloads {
			c.Payloads[a] = p
		}
		return c
	}
	var some []byte
	for _, p := range rep.Payloads {
		some = p
	}
	if some == nil {
		t.Skip("no node delivered in the first cycle")
	}

	unpolled := clone()
	unpolled.Payloads[99] = some
	unpolled.Delivered++
	if p := checkWaveCycle(readings, unpolled, before, after, 3); len(p) == 0 {
		t.Error("payload from an unpolled address passed")
	}
	garbled := clone()
	for a := range garbled.Payloads {
		garbled.Payloads[a] = []byte{1, 2, 3}
	}
	if p := checkWaveCycle(readings, garbled, before, after, 3); len(p) == 0 {
		t.Error("undecodable payload passed")
	}
	if p := checkWaveCycle(readings, rep, before, after[:2], 3); len(p) == 0 {
		t.Error("a node missing from the report passed")
	}
	stray := append([]core.FleetReading(nil), readings...)
	stray = append(stray, core.FleetReading{Addr: 77})
	if p := checkWaveCycle(stray, rep, before, after, 3); len(p) == 0 {
		t.Error("a reading without a delivered payload passed")
	}
	if cycleDigest(readings, rep) == cycleDigest(readings, garbled) {
		t.Error("digest ignores payload bytes")
	}
}

func TestChaosCycleChecks(t *testing.T) {
	ok := linksim.CycleReport{Polled: 10, Delivered: 7, Live: 80, Quarantined: 15, Dropped: 5}
	if p := checkChaosCycle(ok, 100); len(p) > 0 {
		t.Fatalf("consistent report: %v", p)
	}
	lost := ok
	lost.Live--
	if p := checkChaosCycle(lost, 100); len(p) == 0 {
		t.Error("a node lost from live+quarantined+dropped passed")
	}
	over := ok
	over.Delivered = 11
	if p := checkChaosCycle(over, 100); len(p) == 0 {
		t.Error("delivered > polled passed")
	}
	// 4 of 16 is what a 0.06 divergence rate gives now and then; 8 of 16
	// and 35 of 100 are more than a rate within the 0.2 budget explains.
	if p := checkHeroBudget(16, 4); len(p) > 0 {
		t.Errorf("divergence consistent with the budget: %v", p)
	}
	if p := checkHeroBudget(16, 8); len(p) == 0 {
		t.Error("8 of 16 diverged and passed")
	}
	if p := checkHeroBudget(100, 35); len(p) == 0 {
		t.Error("35 of 100 diverged and passed")
	}
	if got := binomialTail(4, 2, 0.5); math.Abs(got-11.0/16) > 1e-12 {
		t.Errorf("P(X ≥ 2 | 4, 0.5) = %v, want 11/16", got)
	}
}

func TestGatewayChecksCatchDroppedReading(t *testing.T) {
	fo, err := newFanout(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	fo.publish(2000, 50*time.Millisecond, false)
	fo.index++ // the next reading skips one: a gap at both probes
	fo.publish(2000, 50*time.Millisecond, false)
	res := newResult()
	_, failed := fo.settle(res)
	if len(res.problems) == 0 {
		t.Fatal("a gap in the probe streams passed")
	}
	if failed == 0 {
		t.Fatal("the skipped reading was not counted as failed deliveries")
	}
}

func TestGatewayChecksCatchEviction(t *testing.T) {
	fo, err := newFanout(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	fo.publish(2000, 50*time.Millisecond, false)
	fo.sinks[0].Close() // the session goes away: its later readings are lost
	fo.publish(2000, 50*time.Millisecond, false)
	res := newResult()
	if _, failed := fo.settle(res); failed == 0 {
		t.Fatal("readings lost with a session were not counted as failed deliveries")
	}
}

func TestGatewayChecksCatchFrameMismatch(t *testing.T) {
	fo, err := newFanout(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	fo.publish(2000, 50*time.Millisecond, false)
	fo.close()
	fo.sinks[1].frames-- // a frame the server counted but no session saw
	res := newResult()
	fo.settle(res)
	if len(res.problems) == 0 {
		t.Fatal("frame counts that do not reconcile passed")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := percentile(v, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(v, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if v[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
}

// TestGridRepetitionsAgree pins what the calibrate workload's repetition
// check relies on: a recomposed campaign repeats round for round, and a
// round whose outcome changed no longer matches.
func TestGridRepetitionsAgree(t *testing.T) {
	cfg := linksim.DefaultCalibrateConfig()
	cfg.Envs = []string{"river"}
	cfg.RangesM = []float64{50}
	cfg.OrientsRad = cfg.OrientsRad[:1]
	cfg.Intensities = []float64{0, 1}
	sites := calibrationSites(cfg, 4)
	const rounds = 3
	var passes [2][]uint64
	var reps []core.RoundReport
	for k := range passes {
		passes[k] = make([]uint64, len(sites)*(rounds+1))
		err := runGrid(sites, rounds, 2, &refMeter{}, func(i int, d time.Duration, rep *core.RoundReport) {
			if rep != nil {
				passes[k][i] = roundDigest(rep)
				if k == 0 && len(reps) == 0 {
					reps = append(reps, *rep)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range passes[0] {
		if passes[0][i] != passes[1][i] {
			t.Fatalf("unit %d differs between two passes of the same campaign", i)
		}
	}
	changed := reps[0]
	changed.ToneSNREst += 0.5
	if roundDigest(&changed) == roundDigest(&reps[0]) {
		t.Fatal("a round with another SNR estimate has the same digest")
	}
}

func TestRefMeter(t *testing.T) {
	var m refMeter
	if got := m.slowdown(); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	m.sampleAll(2)
	if m.n != 2*runtime.GOMAXPROCS(0) || !(m.slowdown() > 0) {
		t.Errorf("after sampleAll(2): %d samples, slowdown %v", m.n, m.slowdown())
	}
	if refCount(0) != 1 || refCount(4*refEvery) != 4 {
		t.Errorf("refCount: %d for 0, %d for 4×refEvery", refCount(0), refCount(4*refEvery))
	}
}
