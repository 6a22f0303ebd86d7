package gateway

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// quantizedReading returns a reading already on the v2 wire grid, the
// form every real pipeline reading arrives in (sensors quantize at the
// source, SNR is rounded by the reader).
func quantizedReading(rng *rand.Rand) Reading {
	return Reading{
		NodeAddr:     byte(rng.Intn(256)),
		Seq:          byte(rng.Intn(256)),
		Count:        rng.Uint32(),
		TempC:        float64(rng.Intn(8001)-4000) / 100, // −40.00 .. 40.00 °C
		PressureMbar: float64(rng.Intn(65536)),
		SNRdB:        float64(rng.Intn(6001)-1000) / 100, // −10.00 .. 50.00 dB
		Time:         time.Unix(0, 1700000000000000000+rng.Int63n(1e12)).UTC(),
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		rds := make([]Reading, n)
		for i := range rds {
			rds[i] = quantizedReading(rng)
		}
		p, err := AppendReadingBatch(nil, rds)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		got, err := DecodeReadingBatch(p)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: got %d readings, want %d", trial, len(got), n)
		}
		for i := range rds {
			if got[i] != rds[i] {
				t.Fatalf("trial %d reading %d:\n got  %+v\n want %+v", trial, i, got[i], rds[i])
			}
		}
	}
}

func TestBatchWireSavings(t *testing.T) {
	// A batch of sequential readings from one node — the shape the
	// reader actually publishes — must beat the v1 wire cost per reading
	// by at least 2x, header included (ISSUE acceptance bar).
	rng := rand.New(rand.NewSource(3))
	base := quantizedReading(rng)
	rds := make([]Reading, 16)
	for i := range rds {
		rd := base
		rd.Seq = base.Seq + byte(i)
		rd.Count = base.Count + uint32(i)
		rd.TempC = base.TempC + float64(i)/100
		rd.Time = base.Time.Add(time.Duration(i) * 250 * time.Millisecond)
		rds[i] = rd
	}
	p, err := AppendReadingBatch(nil, rds)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(MsgReadingBatch, p)
	if err != nil {
		t.Fatal(err)
	}
	v2PerReading := float64(len(frame)) / float64(len(rds))
	v1PerReading := float64(frameHeaderSize + readingWireSize)
	t.Logf("v1 %.1f B/reading, v2 %.2f B/reading (batch of %d, frame %d B)",
		v1PerReading, v2PerReading, len(rds), len(frame))
	if v2PerReading*2 > v1PerReading {
		t.Errorf("v2 wire cost %.2f B/reading is not ≥2x better than v1 %.1f", v2PerReading, v1PerReading)
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rds := []Reading{quantizedReading(rng), quantizedReading(rng)}
	p, err := AppendReadingBatch(nil, rds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReadingBatch(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeReadingBatch(p[:len(p)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := DecodeReadingBatch(append(append([]byte(nil), p...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeReadingBatch([]byte{0}); err == nil {
		t.Error("zero-count batch accepted")
	}
	if _, err := AppendReadingBatch(nil, nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := AppendReadingBatch(nil, []Reading{{TempC: math.NaN()}}); err == nil {
		t.Error("NaN reading encoded")
	}
	if _, err := AppendReadingBatch(nil, []Reading{{TempC: 1e18}}); err == nil {
		t.Error("out-of-range reading encoded")
	}
}

func TestBatchOversizeSplits(t *testing.T) {
	// Enough worst-case readings to overflow one frame: the encoder must
	// refuse with ErrOversize rather than emit an unframeable payload.
	rng := rand.New(rand.NewSource(5))
	rds := make([]Reading, 64)
	for i := range rds {
		rd := quantizedReading(rng)
		// Spread timestamps days apart so every Δtime costs ~9 bytes.
		rd.Time = time.Unix(0, int64(i)*86400e9).UTC()
		rds[i] = rd
	}
	if _, err := AppendReadingBatch(nil, rds); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize batch: %v", err)
	}
	// The server-side splitter must still deliver every reading.
	s := &Server{logf: func(string, ...interface{}) {}}
	s.pending = rds
	s.pendingFirst = 1
	b := &broadcast{}
	s.encodeBroadcast(b)
	frames := b.batch
	var got []Reading
	for _, frame := range frames {
		payload := frame[frameHeaderSize:]
		var err error
		got, err = DecodeReadingBatchInto(got, payload)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(rds) {
		t.Fatalf("split delivered %d readings, want %d", len(got), len(rds))
	}
	for i := range rds {
		if got[i] != rds[i] {
			t.Fatalf("reading %d mismatch after split", i)
		}
	}
	if len(frames) < 2 {
		t.Errorf("expected the batch to split, got %d frame(s)", len(frames))
	}
}

func TestV2ClientReceivesBatches(t *testing.T) {
	s, _ := startServer(t)
	s.SetBatching(4, time.Hour) // deadline far away: flush only on size
	c, err := Dial(context.Background(), s.Addr().String(), WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	rng := rand.New(rand.NewSource(21))
	want := make([]Reading, 4)
	for i := range want {
		want[i] = quantizedReading(rng)
		s.Publish(want[i])
	}
	for i, w := range want {
		got, err := c.Next(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("reading %d:\n got  %+v\n want %+v", i, got, w)
		}
	}
}

func TestDeadlineFlush(t *testing.T) {
	// A partial batch must reach subscribers once flushAfter elapses.
	s, _ := startServer(t)
	s.SetBatching(100, 20*time.Millisecond)
	c, err := Dial(context.Background(), s.Addr().String(), WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	rd := quantizedReading(rand.New(rand.NewSource(23)))
	s.Publish(rd)
	got, err := c.Next(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got != rd {
		t.Fatalf("deadline flush:\n got  %+v\n want %+v", got, rd)
	}
}

func TestMixedSubscribers(t *testing.T) {
	// A default and a WithBatching subscriber on the same flush: both see
	// the same readings, in order.
	s, _ := startServer(t)
	s.SetBatching(4, time.Hour)
	v1, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := Dial(context.Background(), s.Addr().String(), WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	waitSubscribers(t, s, 2)
	rng := rand.New(rand.NewSource(24))
	want := make([]Reading, 4)
	for i := range want {
		want[i] = quantizedReading(rng)
		s.Publish(want[i])
	}
	for _, c := range []*Client{v1, v2} {
		for i, w := range want {
			got, err := c.Next(time.Now().Add(5 * time.Second))
			if err != nil {
				t.Fatalf("reading %d: %v", i, err)
			}
			if got != w {
				t.Fatalf("reading %d:\n got  %+v\n want %+v", i, got, w)
			}
		}
	}
}
