package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestWelchPSDWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := GaussianNoise(make([]complex128, 1<<15), 3.0, rng)
	psd, err := WelchPSD(x, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range psd {
		total += v
	}
	if math.Abs(total-3) > 0.2 {
		t.Errorf("PSD total %v, want ~3 (signal power)", total)
	}
	// Flat within averaging noise: no bin more than 3x the mean.
	mean := total / float64(len(psd))
	for i, v := range psd {
		if v > 3*mean {
			t.Errorf("bin %d = %v sticks out of a white spectrum (mean %v)", i, v, mean)
		}
	}
}

func TestWelchPSDTone(t *testing.T) {
	fs := 16000.0
	n := 1 << 14
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(2, Tau*2000*float64(i)/fs)
	}
	psd, err := WelchPSD(x, 512, Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Power 4 concentrated near 2 kHz.
	inBand := BandPower(psd, fs, 1800, 2200)
	if math.Abs(inBand-4) > 0.2 {
		t.Errorf("tone band power %v, want ~4", inBand)
	}
	if out := BandPower(psd, fs, -4200, -3800); out > 0.01 {
		t.Errorf("mirror band power %v, want ~0", out)
	}
}

func TestWelchPSDValidation(t *testing.T) {
	if _, err := WelchPSD(make([]complex128, 100), 4, Hann); err == nil {
		t.Error("tiny nfft accepted")
	}
	if _, err := WelchPSD(make([]complex128, 10), 64, Hann); err == nil {
		t.Error("short signal accepted")
	}
}
