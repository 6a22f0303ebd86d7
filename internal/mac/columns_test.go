package mac

import (
	"math/rand"
	"testing"
)

// TestColumnsMatchFold drives randomized outcome sequences through the
// struct-based reference model (fold_test.go) and the NodeColumns fold
// state machine and checks the materialized state matches field for field
// — including the unexported probe-schedule fields — after every step:
// same outcomes, same decisions, bit for bit.
func TestColumnsMatchFold(t *testing.T) {
	policies := []PollPolicy{
		DefaultPollPolicy(),
		{MaxRetries: 2, BackoffSlots: 8, DropAfter: 3, Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8},
		{MaxRetries: 1, BackoffSlots: 4, DropAfter: 1, Probation: true, ProbeBackoffBase: 1, ProbeBackoffMax: 1},
		{MaxRetries: 0, BackoffSlots: 1, DropAfter: 2}, // drop, no probation
		{MaxRetries: 3, BackoffSlots: 8},               // never drop
	}
	for pi, p := range policies {
		rng := rand.New(rand.NewSource(int64(41 + pi)))
		const nodes = 5
		cols := NewNodeColumns(nodes)
		structs := make([]NodeState, nodes)
		for i := range structs {
			structs[i] = NodeState{Addr: byte(i + 1), Health: 1}
			cols.Addr[i] = byte(i + 1)
		}
		for cycle := 0; cycle < 200; cycle++ {
			for i := 0; i < nodes; i++ {
				st := &structs[i]
				switch {
				case st.Dropped != cols.Dropped(i) || st.Quarantined != cols.Quarantined(i):
					t.Fatalf("policy %d cycle %d node %d: liveness diverged before fold", pi, cycle, i)
				case st.Dropped:
					continue
				case st.Quarantined:
					if !st.ProbeDue(cycle) {
						if cols.ProbeDueAt(i, cycle) {
							t.Fatalf("policy %d cycle %d node %d: ProbeDue disagrees", pi, cycle, i)
						}
						continue
					}
					if st.NextProbe() != cols.NextProbeAt(i) {
						t.Fatalf("policy %d cycle %d node %d: NextProbe %d vs %d", pi, cycle, i, st.NextProbe(), cols.NextProbeAt(i))
					}
					st.Polls++
					cols.Polls[i]++
					if rng.Float64() < 0.4 { // probe delivers
						snr := rng.NormFloat64()*4 + 10
						FoldDelivered(st, snr)
						cols.FoldDeliveredAt(i, snr)
						lat := st.Restore(cycle)
						if clat := cols.RestoreAt(i, cycle); clat != lat {
							t.Fatalf("policy %d cycle %d node %d: recovery latency %d vs %d", pi, cycle, i, lat, clat)
						}
					} else {
						p.FoldProbeFailure(st, cycle)
						p.FoldProbeFailureAt(cols, i, cycle)
					}
				default:
					attempts := 1 + rng.Intn(1+p.MaxRetries)
					st.Polls += attempts
					cols.Polls[i] += int32(attempts)
					if attempts > 1 {
						st.Retries += attempts - 1
						cols.Retries[i] += int32(attempts - 1)
					}
					if rng.Float64() < 0.5 { // delivered within budget
						snr := rng.NormFloat64()*4 + 12
						FoldDelivered(st, snr)
						cols.FoldDeliveredAt(i, snr)
					} else {
						want := p.FoldPollFailure(st, cycle)
						if got := p.FoldPollFailureAt(cols, i, cycle); got != want {
							t.Fatalf("policy %d cycle %d node %d: liveness change %v vs %v", pi, cycle, i, want, got)
						}
					}
				}
				if got, want := cols.State(i), *st; got != want {
					t.Fatalf("policy %d cycle %d node %d: state diverged\ncolumns: %+v\nstruct:  %+v", pi, cycle, i, got, want)
				}
			}
		}
	}
}

// TestNodeColumnsInit pins the AddNode-equivalent initial state and the
// probe-horizon export the calendar wheel sizes itself with.
func TestNodeColumnsInit(t *testing.T) {
	c := NewNodeColumns(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < 3; i++ {
		if !c.Live(i) {
			t.Fatalf("node %d not live at init", i)
		}
		want := NodeState{Health: 1}
		if got := c.State(i); got != want {
			t.Fatalf("node %d init state %+v, want %+v", i, got, want)
		}
	}
	if h := (PollPolicy{}).ProbeHorizon(); h != 16 {
		t.Fatalf("default probe horizon %d, want 16", h)
	}
	if h := (PollPolicy{ProbeBackoffMax: 8}).ProbeHorizon(); h != 8 {
		t.Fatalf("probe horizon %d, want 8", h)
	}
}
