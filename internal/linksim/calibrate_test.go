package linksim

import (
	"math"
	"strings"
	"testing"
	"time"
)

// smallGrid is a CI-sized calibration campaign: four cells, seconds of
// waveform time, but the full pipeline — fault scaling, fallback bias
// correction, isotonic shaping, logistic fit, validation.
func smallGrid() CalibrateConfig {
	return CalibrateConfig{
		Envs:          []string{"river"},
		RangesM:       []float64{50, 300},
		OrientsRad:    []float64{0},
		Intensities:   []float64{0, 1},
		Scenario:      "chaos",
		RoundsPerCell: 6,
		Seed:          11,
	}
}

// TestCalibrateSmallGrid runs the calibrator end-to-end against the real
// waveform tier and checks the table it emits has the physical shape the
// model depends on.
func TestCalibrateSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	tab, err := Calibrate(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if tab.Scenario != "chaos" || tab.Seed != 11 || tab.RoundsPerCell != 6 {
		t.Fatalf("provenance not recorded: %+v", tab)
	}
	if tab.ChipRate <= 0 || tab.SourceLevelDB <= 0 {
		t.Fatalf("PHY provenance missing: chip=%g sl=%g", tab.ChipRate, tab.SourceLevelDB)
	}
	for ii := range tab.Intensities {
		near := tab.CellAt(0, ii, 0, 0)
		far := tab.CellAt(0, ii, 0, 1)
		if far.PDeliver > near.PDeliver {
			t.Fatalf("intensity %d: delivery rises with range (%g @50m, %g @300m)",
				ii, near.PDeliver, far.PDeliver)
		}
		if far.DelayMs <= near.DelayMs {
			t.Fatalf("intensity %d: delay not increasing with range (%g, %g)",
				ii, near.DelayMs, far.DelayMs)
		}
		if near.SNRMeanDB <= far.SNRMeanDB {
			t.Fatalf("intensity %d: SNR not decreasing with range (%g dB @50m, %g dB @300m)",
				ii, near.SNRMeanDB, far.SNRMeanDB)
		}
	}
	// X3's ground truth in miniature: the fault-free 50 m link delivers,
	// the 300 m link does not.
	if p := tab.CellAt(0, 0, 0, 0).PDeliver; p < 0.5 {
		t.Fatalf("fault-free 50 m cell delivers p=%g, want a working link", p)
	}
	if p := tab.CellAt(0, 0, 0, 1).PDeliver; p > 0.1 {
		t.Fatalf("300 m cell delivers p=%g, want the decode cliff", p)
	}
	if tab.LogisticK <= 0 {
		t.Fatalf("logistic fit k=%g", tab.LogisticK)
	}
}

// TestCalibrateDeterministicAcrossWorkers: the committed artifact's
// regeneration contract — same config, any worker count, same bytes.
func TestCalibrateDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	cfg := smallGrid()
	cfg.Workers = 1
	serial, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := serial.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("calibration tables differ across worker counts")
	}
}

// TestCalibrateConfigValidate pins the config's rejection surface.
func TestCalibrateConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		wreck func(*CalibrateConfig)
		want  string
	}{
		{"empty axis", func(c *CalibrateConfig) { c.RangesM = nil }, "empty axis"},
		{"bad rounds", func(c *CalibrateConfig) { c.RoundsPerCell = 0 }, "rounds per cell"},
		{"bad env", func(c *CalibrateConfig) { c.Envs = []string{"lake"} }, "unknown environment"},
		{"bad scenario", func(c *CalibrateConfig) { c.Scenario = "nonsense" }, "scenario"},
	}
	for _, tc := range cases {
		cfg := smallGrid()
		tc.wreck(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := Calibrate(CalibrateConfig{}); err == nil {
		t.Fatal("Calibrate accepted the zero config")
	}
}

// TestEnvByName pins the preset surface.
func TestEnvByName(t *testing.T) {
	for _, name := range []string{"river", "ocean"} {
		env, err := EnvByName(name)
		if err != nil || env == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := EnvByName("lagoon"); err == nil || !strings.Contains(err.Error(), "river") {
		t.Fatalf("unknown env error should list presets, got %v", err)
	}
}

// TestCalibrateRejectsNonFiniteSNR: a cell whose analytic fallback SNR is
// -Inf (no deliveries and a budget that reports no signal) must end the
// calibration with an error naming the cell, not hang the logistic fit's
// grid search.
func TestCalibrateRejectsNonFiniteSNR(t *testing.T) {
	cfg := smallGrid()
	tab := &Table{
		FormatVersion: TableFormatVersion,
		Envs:          cfg.Envs,
		RangesM:       cfg.RangesM,
		OrientsRad:    cfg.OrientsRad,
		Intensities:   cfg.Intensities,
		ChipRate:      1000,
		Cells:         make([]Cell, 4),
	}
	meas := make([]cellMeasurement, 4)
	for i := range meas {
		meas[i] = cellMeasurement{
			cell:          Cell{PDeliver: 0.9, SNRMeanDB: 20 - float64(i), SNRStdDB: 1, DelayMs: 50},
			analyticSNRdB: 24 - float64(i),
			delivered:     30,
		}
	}
	// Cell 3 (intensity 1, 300 m): nothing delivered, and the fallback's
	// analytic SNR is -Inf.
	meas[3].delivered = 0
	meas[3].analyticSNRdB = math.Inf(-1)
	meas[3].cell = Cell{SNRMeanDB: math.Inf(-1), SNRStdDB: 2, CorrMean: 8, DelayMs: 400}
	for i := range meas {
		tab.Cells[i] = meas[i].cell
	}
	done := make(chan error, 1)
	go func() { done <- tab.finish(meas) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cell 3 (river, intensity 1") {
			t.Fatalf("finish: %v, want an error naming cell 3", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("finish did not return within 10 s")
	}
}
