package channel

// workspace holds the per-Link scratch buffers behind the *Into entry
// points. Buffers grow monotonically to the largest waveform the link has
// processed and are then reused, so a steady-state round pipeline (same
// frame length every round) performs zero channel-layer allocations —
// the contract TestRoundTripSteadyStateAllocs pins.
type workspace struct {
	atNode []complex128 // RoundTripInto's node-side intermediate
	noise  []complex128 // addNoise's Gaussian draw
}

// growBuf returns buf resized to n, reallocating only when capacity is
// insufficient (counted, so the ops endpoint can confirm the steady state
// stopped growing).
func growBuf(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		metWorkspaceGrow.Inc()
		return make([]complex128, n)
	}
	return buf[:n]
}
