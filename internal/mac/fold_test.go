package mac

import (
	"testing"
)

// Reference model of the fold state machine, for tests only.
//
// The transitions below act on one mutable NodeState per node and share
// no code with the NodeColumns fold — the health EWMA is written out here
// rather than calling foldHealth — so TestColumnsMatchFold and
// TestFoldPrimitivesMatchScheduler check the production state machine
// against an independent model, field for field.

// FoldDelivered folds a delivered poll (or a restoring probe's successful
// round) into the node's bookkeeping: success and SNR accounting plus the
// health EWMA. Quarantine exit for probes is a separate step — see
// (*NodeState).Restore.
func FoldDelivered(st *NodeState, snrDB float64) {
	st.Successes++
	st.LastSNRdB = snrDB
	st.SilentCycles = 0
	observeHealth(st, true)
}

// Restore exits quarantine after a successful re-probe and returns the
// recovery latency in cycles.
func (st *NodeState) Restore(cycle int) int {
	st.Quarantined = false
	return cycle - st.quarantinedAt + 1
}

// FoldProbeFailure folds a failed quarantine re-probe: the health EWMA
// decays and the re-probe backoff doubles up to the policy cap.
func (p PollPolicy) FoldProbeFailure(st *NodeState, cycle int) {
	observeHealth(st, false)
	st.probeInterval *= 2
	if max := p.probeMax(); st.probeInterval > max {
		st.probeInterval = max
	}
	st.nextProbe = cycle + st.probeInterval
}

// FoldPollFailure folds a poll whose retry budget is exhausted: the silent
// cycle is counted and the liveness policy applied.
func (p PollPolicy) FoldPollFailure(st *NodeState, cycle int) LivenessChange {
	observeHealth(st, false)
	st.SilentCycles++
	if p.DropAfter > 0 && st.SilentCycles >= p.DropAfter {
		if p.Probation {
			st.Quarantined = true
			st.QuarantineEntries++
			st.quarantinedAt = cycle
			st.probeInterval = p.probeBase()
			st.nextProbe = cycle + st.probeInterval
			return LivenessQuarantined
		}
		st.Dropped = true
		return LivenessDropped
	}
	return LivenessNone
}

// ProbeDue reports whether a quarantined node's re-probe backoff has
// elapsed at the given cycle.
func (st *NodeState) ProbeDue(cycle int) bool {
	return st.Quarantined && cycle >= st.nextProbe
}

// NextProbe returns the cycle index of the node's next scheduled re-probe.
func (st *NodeState) NextProbe() int { return st.nextProbe }

// observeHealth folds one cycle outcome into the node's health score.
func observeHealth(st *NodeState, delivered bool) {
	outcome := 0.0
	if delivered {
		outcome = 1
	}
	st.Health = (1-healthAlpha)*st.Health + healthAlpha*outcome
}

// scriptTrx replays a fixed per-address outcome schedule: outcomes[addr][i]
// is the result of the i-th poll of addr (false = timeout). Exhausted
// scripts keep returning the last entry.
type scriptTrx struct {
	outcomes map[byte][]bool
	calls    map[byte]int
}

func (t *scriptTrx) Poll(addr byte) (RoundResult, error) {
	sc := t.outcomes[addr]
	i := t.calls[addr]
	t.calls[addr]++
	ok := false
	if len(sc) > 0 {
		if i >= len(sc) {
			i = len(sc) - 1
		}
		ok = sc[i]
	}
	if !ok {
		return RoundResult{}, nil
	}
	return RoundResult{OK: true, Payload: []byte{addr}, SNRdB: 12}, nil
}

// TestFoldPrimitivesMatchScheduler drives a Scheduler through a
// quarantine/restore trajectory and replays the same outcome sequence
// through the exported fold primitives directly; the two node-state
// evolutions must agree field for field. This is the contract the
// link-abstraction tier relies on: calling the primitives IS running the
// MAC decision phase.
func TestFoldPrimitivesMatchScheduler(t *testing.T) {
	policy := PollPolicy{
		MaxRetries: 0, BackoffSlots: 8, DropAfter: 2,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
	}
	// Node 7: delivers twice, goes silent for 4 polls (2 cycles → quarantine,
	// then probes fail twice), then answers its next probe and stays up.
	script := []bool{true, true, false, false, false, false, true, true, true, true}
	trx := &scriptTrx{outcomes: map[byte][]bool{7: script}, calls: map[byte]int{}}
	sched, err := NewScheduler(trx, policy)
	if err != nil {
		t.Fatal(err)
	}
	sched.AddNode(7)

	// Shadow state evolved through the fold primitives only.
	shadow := NodeState{Addr: 7, Health: 1}
	si := 0 // script cursor for the shadow run

	const cycles = 20
	for c := 0; c < cycles; c++ {
		if _, err := sched.RunCycle(); err != nil {
			t.Fatal(err)
		}

		// Shadow decision phase: same schedule the Scheduler computes.
		switch {
		case shadow.Dropped:
		case shadow.Quarantined:
			if shadow.ProbeDue(c) {
				shadow.Polls++
				ok := script[min(si, len(script)-1)]
				si++
				if ok {
					FoldDelivered(&shadow, 12)
					shadow.Restore(c)
				} else {
					policy.FoldProbeFailure(&shadow, c)
				}
			}
		default:
			shadow.Polls++
			ok := script[min(si, len(script)-1)]
			si++
			if ok {
				FoldDelivered(&shadow, 12)
			} else {
				policy.FoldPollFailure(&shadow, c)
			}
		}

		got := sched.Nodes()[0]
		if got != shadow {
			t.Fatalf("cycle %d: scheduler state %+v != fold-primitive state %+v", c, got, shadow)
		}
	}
	if shadow.QuarantineEntries != 1 || shadow.Quarantined {
		t.Fatalf("trajectory did not exercise quarantine+restore: %+v", shadow)
	}
}

// TestFoldPollFailureTransitions pins the liveness transitions.
func TestFoldPollFailureTransitions(t *testing.T) {
	p := PollPolicy{MaxRetries: 0, BackoffSlots: 8, DropAfter: 2, Probation: true}
	c := NewNodeColumns(2)
	if ch := p.FoldPollFailureAt(c, 0, 0); ch != LivenessNone {
		t.Fatalf("first silent cycle: got %v, want LivenessNone", ch)
	}
	if ch := p.FoldPollFailureAt(c, 0, 1); ch != LivenessQuarantined {
		t.Fatalf("second silent cycle: got %v, want LivenessQuarantined", ch)
	}
	due := 1 + int(c.NextProbe[0]-c.QuarantinedAt[0])
	if !c.ProbeDueAt(0, due) {
		t.Fatal("probe not due at nextProbe")
	}

	drop := PollPolicy{MaxRetries: 0, BackoffSlots: 8, DropAfter: 1}
	if ch := drop.FoldPollFailureAt(c, 1, 0); ch != LivenessDropped || !c.Dropped(1) {
		t.Fatalf("drop policy: got %v dropped=%v", ch, c.Dropped(1))
	}
}
