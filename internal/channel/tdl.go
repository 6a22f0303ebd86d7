package channel

import (
	"math"

	"vab/internal/dsp"
)

// applyTDLInto applies a tapped delay line with the common bulk delay
// removed (the relative-delay convolution Downlink and Uplink use): zero
// dst, then one dsp.MixInto pass per tap in tap order, delays rounded to
// whole samples relative to the earliest tap. dst and x must have equal
// length and must not alias. This is the arithmetic seeded experiments pin
// bit-exactly.
func applyTDLInto(dst, x []complex128, taps []Tap) {
	if len(dst) != len(x) {
		panic("channel: applyTDLInto length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	if len(taps) == 0 {
		return
	}
	base := math.Inf(1)
	for _, t := range taps {
		if t.DelaySamples < base {
			base = t.DelaySamples
		}
	}
	for _, t := range taps {
		off := int(math.Round(t.DelaySamples - base))
		dsp.MixInto(dst, x, off, t.Gain)
	}
}
