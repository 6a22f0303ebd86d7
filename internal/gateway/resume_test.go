package gateway

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"
)

// seqReading tags a reading with its publish index so content checks can
// cross-verify stream sequences.
func seqReading(i uint64) Reading {
	rd := testReading()
	rd.Count = uint32(i)
	rd.PressureMbar = 1294 // whole mbar: survives the v2 quantization grid
	rd.Time = time.Unix(0, 1700000000000000000+int64(i)).UTC()
	return rd
}

func TestResumeCodecRoundTrip(t *testing.T) {
	p := AppendResume(nil, 12345)
	if got, err := DecodeResume(p); err != nil || got != 12345 {
		t.Fatalf("resume round trip: %d %v", got, err)
	}
	if _, err := DecodeResume(append(p, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeResume(nil); err == nil {
		t.Fatal("empty resume accepted")
	}

	ack := AppendResumeAck(nil, 10, 20)
	from, next, err := DecodeResumeAck(ack)
	if err != nil || from != 10 || next != 20 {
		t.Fatalf("ack round trip: %d %d %v", from, next, err)
	}
	if _, _, err := DecodeResumeAck(AppendResumeAck(nil, 20, 10)); err == nil {
		t.Fatal("liveNext < replayFrom accepted")
	}

	rds := []Reading{seqReading(1), seqReading(2), seqReading(3)}
	sb, err := AppendSeqBatch(nil, 41, rds)
	if err != nil {
		t.Fatal(err)
	}
	got, first, err := DecodeSeqBatchInto(nil, sb)
	if err != nil || first != 41 || len(got) != 3 {
		t.Fatalf("seq batch round trip: first=%d n=%d err=%v", first, len(got), err)
	}
	for i := range rds {
		if got[i] != rds[i] {
			t.Fatalf("reading %d differs: %+v vs %+v", i, got[i], rds[i])
		}
	}
	if _, err := AppendSeqBatch(nil, 0, rds); err == nil {
		t.Fatal("firstSeq 0 accepted")
	}
}

func TestReplayRing(t *testing.T) {
	r := NewReplayRing(4)
	if oldest, next := r.Window(); oldest != 1 || next != 1 {
		t.Fatalf("fresh window [%d,%d)", oldest, next)
	}
	for i := uint64(1); i <= 10; i++ {
		r.Append(i, seqReading(i))
	}
	oldest, next := r.Window()
	if oldest != 7 || next != 11 || r.Len() != 4 {
		t.Fatalf("window [%d,%d) len %d, want [7,11) 4", oldest, next, r.Len())
	}
	// Everything still in the window replays in order.
	got, first := r.Since(8, nil)
	if first != 9 || len(got) != 2 || got[0].Count != 9 || got[1].Count != 10 {
		t.Fatalf("Since(8): first=%d got=%v", first, got)
	}
	// An aged-out lastSeq clamps to the window start.
	got, first = r.Since(2, nil)
	if first != 7 || len(got) != 4 {
		t.Fatalf("Since(2): first=%d n=%d, want 7 4", first, len(got))
	}
	// Fully caught up: nothing to replay.
	if got, first = r.Since(10, nil); first != 0 || len(got) != 0 {
		t.Fatalf("Since(10): first=%d n=%d", first, len(got))
	}
	// Out-of-order append resets instead of serving a holed window.
	r.Append(100, seqReading(100))
	if oldest, next := r.Window(); oldest != 100 || next != 101 || r.Len() != 1 {
		t.Fatalf("after reset: [%d,%d) len %d", oldest, next, r.Len())
	}
	// Zero-size ring keeps nothing and never panics.
	z := NewReplayRing(0)
	z.Append(1, seqReading(1))
	if got, first := z.Since(0, nil); first != 0 || len(got) != 0 {
		t.Fatalf("zero ring replayed: first=%d n=%d", first, len(got))
	}
}

// TestResumeRecoversGap is the tentpole scenario: a subscriber reads part
// of the stream, loses its connection, more readings flow, and the
// resumed session recovers every missed reading — one gap-free strictly
// increasing sequence.
func TestResumeRecoversGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	publishUpTo := func(n *uint64, upTo uint64) {
		for *n < upTo {
			*n++
			srv.Publish(seqReading(*n))
		}
	}
	var published uint64

	// Session 1: fresh resume subscriber reads the first 5 readings.
	c, err := Dial(ctx, addr, WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	waitForSequenced(t, srv)
	publishUpTo(&published, 5)
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("session 1 next %d: %v", i, err)
		}
		if got := c.LastSeq(); got != lastSeq+1 || uint64(rd.Count) != got {
			t.Fatalf("session 1 seq %d (count %d), want %d", got, rd.Count, lastSeq+1)
		}
		lastSeq = c.LastSeq()
	}
	c.Close()

	// The subscriber is gone; the stream keeps flowing.
	waitForSubscribers(t, srv, 0)
	publishUpTo(&published, 12)

	// Session 2: resume from lastSeq recovers 6..12 with no gap.
	c2, err := Dial(ctx, addr, WithResume(lastSeq))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for want := lastSeq + 1; want <= 12; want++ {
		rd, err := c2.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("session 2 next (want seq %d): %v", want, err)
		}
		if got := c2.LastSeq(); got != want || uint64(rd.Count) != want {
			t.Fatalf("session 2 seq %d (count %d), want %d", got, rd.Count, want)
		}
	}
	from, liveNext, ok := c2.ResumeWindow()
	if !ok || from != lastSeq+1 {
		t.Fatalf("ack window from=%d ok=%v, want from=%d", from, ok, lastSeq+1)
	}
	if liveNext != 13 {
		t.Fatalf("ack liveNext=%d, want 13", liveNext)
	}
}

// TestResumeAgedOutGap: when the gap outgrew the ring, the ack reports
// the truncated window and the session continues from the oldest
// retained reading — degraded to partial recovery, never stuck.
func TestResumeAgedOutGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetReplay(4) // tiny window: the gap will age out

	for i := uint64(1); i <= 20; i++ {
		srv.Publish(seqReading(i))
	}
	c, err := Dial(ctx, addr(srv), WithResume(2)) // lastSeq 2: gap 3..16 is gone
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First recovered reading must be the window start (17 = 21-4), and
	// the ack must disclose the unrecoverable gap.
	for want := uint64(17); want <= 20; want++ {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("next (want %d): %v", want, err)
		}
		if got := c.LastSeq(); got != want || uint64(rd.Count) != want {
			t.Fatalf("seq %d (count %d), want %d", got, rd.Count, want)
		}
	}
	from, _, ok := c.ResumeWindow()
	if !ok || from != 17 {
		t.Fatalf("ack from=%d ok=%v, want 17 (gap 3..16 aged out)", from, ok)
	}
}

// TestPublishRejectsUnencodable: a reading the batch codec cannot carry
// is refused by Publish before it takes a stream sequence, so the
// readings flushed alongside it still reach a sequenced subscriber, with
// contiguous sequence numbers.
func TestPublishRejectsUnencodable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBatching(4, time.Hour)
	c, err := Dial(ctx, addr(srv), WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitForSequenced(t, srv)

	var kept []uint32
	for i := uint64(1); i <= 8; i++ {
		rd := seqReading(i)
		switch i {
		case 2:
			rd.SNRdB = math.Inf(-1)
		case 6:
			rd.PressureMbar = 1e12 // beyond the quantizable range
		}
		err := srv.Publish(rd)
		if bad := i == 2 || i == 6; bad != (err != nil) {
			t.Fatalf("publish %d: err=%v, want rejected=%v", i, err, bad)
		}
		if err == nil {
			kept = append(kept, rd.Count)
		}
	}
	srv.Flush()
	if next := srv.NextSeq(); next != uint64(len(kept))+1 {
		t.Fatalf("NextSeq %d after %d accepted readings", next, len(kept))
	}
	for i, want := range kept {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("next (want count %d): %v", want, err)
		}
		if rd.Count != want || c.LastSeq() != uint64(i+1) {
			t.Fatalf("got count %d at seq %d, want count %d at seq %d", rd.Count, c.LastSeq(), want, i+1)
		}
	}
}

// TestHeartbeatDeadPeerEviction: a subscriber that proved it pongs and
// then goes silent is dropped after miss periods; a v1 subscriber that
// never ponged is left alone.
func TestHeartbeatDeadPeerEviction(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHeartbeatPolicy(30*time.Millisecond, 2)

	// v1 bystander: never sends anything, must survive.
	v1, err := net.Dial("tcp", addr(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	go drainConn(v1)

	// Dead peer: upgrades to v2 (making it pong-tracked), then goes
	// silent while still draining the socket so writes never block.
	dead, err := net.Dial("tcp", addr(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	go drainConn(dead)
	hello, _ := EncodeFrame(MsgHello, []byte{ProtocolV2})
	if _, err := dead.Write(hello); err != nil {
		t.Fatal(err)
	}

	waitForSubscribers(t, srv, 2)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead peer not evicted (still %d subscribers)", srv.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give the reaper a few more periods: the v1 subscriber must remain.
	time.Sleep(150 * time.Millisecond)
	if srv.Subscribers() != 1 {
		t.Fatalf("v1 subscriber evicted without ever ponging")
	}
}

// TestClientPongsKeepSessionAlive: a live v2 client that keeps calling
// Next answers heartbeats and survives many miss windows.
func TestClientPongsKeepSessionAlive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHeartbeatPolicy(20*time.Millisecond, 2)

	c, err := Dial(ctx, addr(srv), WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		// No readings are published: Next sits on the socket answering
		// heartbeats until the deadline fires.
		_, err := c.Next(time.Now().Add(400 * time.Millisecond))
		done <- err
	}()
	err = <-done
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("next: %v, want deadline timeout (session killed early?)", err)
	}
	if srv.Subscribers() != 1 {
		t.Fatalf("ponging subscriber evicted: %d subscribers", srv.Subscribers())
	}
}

// TestGracefulDrainGoodbye: Close flushes the pending batch and the
// subscriber sees every reading followed by ErrServerClosing, not a
// connection reset.
func TestGracefulDrainGoodbye(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBatching(64, time.Hour) // park readings in the pending batch

	c, err := Dial(ctx, addr(srv), WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitForSequenced(t, srv)
	for i := uint64(1); i <= 5; i++ {
		srv.Publish(seqReading(i))
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	var got []uint64
	for {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			if !errors.Is(err, ErrServerClosing) {
				t.Fatalf("stream ended with %v, want ErrServerClosing", err)
			}
			break
		}
		got = append(got, uint64(rd.Count))
	}
	if len(got) != 5 {
		t.Fatalf("drained %d readings, want 5: %v", len(got), got)
	}
	for i, g := range got {
		if g != uint64(i+1) {
			t.Fatalf("drain out of order: %v", got)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// addr is shorthand for a server's dial address.
func addr(s *Server) string { return s.Addr().String() }

// drainConn discards everything the server sends so its writes never
// block on a full kernel buffer.
func drainConn(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// waitForSequenced blocks until the server has processed a MsgResume
// (some subscriber switched to sequenced delivery).
func waitForSequenced(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A subscriber turns sequenced when its shard flusher lands the
		// resume entry — once any has, that replay is ahead of every
		// flush published after this point.
		if sequencedSubscribers(s) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no subscriber switched to sequenced delivery")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sequencedSubscribers counts the subscribers on MsgSeqBatch delivery.
func sequencedSubscribers(s *Server) int {
	s.seqMu.Lock()
	shards := s.shards
	s.seqMu.Unlock()
	n := 0
	for _, sh := range shards {
		sh.mu.Lock()
		for sub := range sh.subs {
			if sub.sequenced.Load() {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// waitForSubscribers blocks until the server has exactly n subscribers.
func waitForSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Subscribers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers stuck at %d, want %d", s.Subscribers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
