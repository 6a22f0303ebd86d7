package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vab/internal/gateway"
	"vab/internal/netmem"
	"vab/internal/telemetry"
)

// gatewaySize is the gateway_fanout_1k shape; tests shrink it.
type gatewaySize struct {
	sinks    int
	lowRate  float64 // readings/s, below the 16-reading / 5 ms fill rate
	highRate float64 // readings/s, above the fill rate; ~2/3 of the knee when the host runs slow
	warmup   time.Duration
	ladder   []float64 // sustained-rate search, multiples of highRate
	rung     time.Duration
}

func defaultGatewaySize() gatewaySize {
	return gatewaySize{sinks: 1000, lowRate: 1000, highRate: 8000, warmup: 500 * time.Millisecond,
		ladder: []float64{1, 1.5, 2, 3, 4, 5, 6, 8}, rung: 2 * time.Second}
}

const (
	batchReadings = 16
	batchDeadline = 5 * time.Millisecond
	probeCount    = 2
	drainTimeout  = 3 * time.Second
)

// sink is a passive in-process subscriber session: a net.Conn the
// gateway writes to and reads its handshake (and heartbeat pongs) from.
// It has no goroutine of its own; it counts the frames, writes, bytes
// and readings the gateway hands it.
type sink struct {
	resume bool

	mu      sync.Mutex
	cond    *sync.Cond
	inbound []byte // handshake, then pongs
	closed  bool

	handshook atomic.Bool
	acked     atomic.Bool

	// Touched only by the gateway's writer goroutine for this session;
	// read after Server.Close has waited for it.
	writes, frames, bytes, readings int64
	capture                         [][]byte // first batch payloads, for the decode timing
}

var sinkAddr = netmem.Addr{Name: "vabperf-sink"}

func newSink(resume bool) *sink {
	s := &sink{resume: resume}
	s.cond = sync.NewCond(&s.mu)
	hello, _ := gateway.EncodeFrame(gateway.MsgHello, []byte{gateway.ProtocolV2})
	s.inbound = hello
	if resume {
		req, _ := gateway.EncodeFrame(gateway.MsgResume, gateway.AppendResume(nil, 0))
		s.inbound = append(s.inbound, req...)
	}
	return s
}

func (s *sink) Read(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.inbound) == 0 && !s.closed {
		s.handshook.Store(true)
		s.cond.Wait()
	}
	if s.closed {
		return 0, net.ErrClosed
	}
	n := copy(b, s.inbound)
	s.inbound = s.inbound[n:]
	return n, nil
}

var pong, _ = gateway.EncodeFrame(gateway.MsgPong, nil)

// account parses whole frames out of one buffer the gateway wrote.
func (s *sink) account(b []byte) {
	s.bytes += int64(len(b))
	for off := 0; off+9 <= len(b); {
		t := gateway.MsgType(b[off+4])
		n := int(binary.BigEndian.Uint32(b[off+5 : off+9]))
		p := b[off+9 : min(off+9+n, len(b))]
		s.frames++
		switch t {
		case gateway.MsgReading:
			s.readings++
		case gateway.MsgReadingBatch, gateway.MsgSeqBatch:
			q := p
			if t == gateway.MsgSeqBatch {
				_, k := binary.Uvarint(q)
				q = q[max(k, 0):]
			}
			c, _ := binary.Uvarint(q)
			s.readings += int64(c)
			if t == gateway.MsgReadingBatch && len(s.capture) < 64 {
				s.capture = append(s.capture, append([]byte(nil), p...))
			}
		case gateway.MsgResumeAck:
			s.acked.Store(true)
		case gateway.MsgHeartbeat:
			s.mu.Lock()
			s.inbound = append(s.inbound, pong...)
			s.cond.Signal()
			s.mu.Unlock()
		}
		off += 9 + n
	}
}

func (s *sink) Write(b []byte) (int, error) {
	if s.isClosed() {
		return 0, net.ErrClosed
	}
	s.writes++
	s.account(b)
	return len(b), nil
}

// WriteBuffers is the gathered write the gateway uses on in-memory conns.
func (s *sink) WriteBuffers(bufs net.Buffers) (int64, error) {
	if s.isClosed() {
		return 0, net.ErrClosed
	}
	s.writes++
	var n int64
	for _, b := range bufs {
		s.account(b)
		n += int64(len(b))
	}
	return n, nil
}

func (s *sink) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *sink) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

func (s *sink) ready() bool { return s.handshook.Load() && (!s.resume || s.acked.Load()) }

func (s *sink) LocalAddr() net.Addr                { return sinkAddr }
func (s *sink) RemoteAddr() net.Addr               { return sinkAddr }
func (s *sink) SetDeadline(t time.Time) error      { return nil }
func (s *sink) SetReadDeadline(t time.Time) error  { return nil }
func (s *sink) SetWriteDeadline(t time.Time) error { return nil }

// chanListener hands the gateway pre-made connections.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *chanListener) Addr() net.Addr { return sinkAddr }

// frameCounter counts whole frames on a probe's byte stream.
type frameCounter struct {
	net.Conn
	hdr    [9]byte
	nh     int
	skip   int
	frames atomic.Int64
}

func (c *frameCounter) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	for p := b[:n]; len(p) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(p))
			c.skip -= k
			p = p[k:]
			continue
		}
		k := copy(c.hdr[c.nh:], p)
		c.nh += k
		p = p[k:]
		if c.nh == len(c.hdr) {
			c.frames.Add(1)
			c.skip = int(binary.BigEndian.Uint32(c.hdr[5:9]))
			c.nh = 0
		}
	}
	return n, err
}

// phase is one open-loop publishing interval at a fixed rate. Readings
// carry their global index in Count and their due time in Time.
type phase struct {
	start, n int
	traced   bool
	due      []int64             // due time, Unix ns, by index-start
	decoded  [probeCount][]int64 // decode time at probe p, Unix ns (written by the probe loop)
	late     []float64           // generator lateness, ms
	pubUs    []float64           // traced: Publish call duration
	flushRet []int64             // traced: return time of a Publish that flushed a batch, else 0
	per      int                 // readings per measurement window
	cpu      []time.Duration     // process CPU time at each window start, and after the drain
}

// window is the unit the gateway's end-to-end figures are taken over: a
// run reports the median across windows of each window's figure, so one
// window disturbed by a stall on a shared host does not move the run.
const window = 500 * time.Millisecond

// fanout is one assembled gateway with its sinks and probes.
type fanout struct {
	srv    *gateway.Server
	reg    *telemetry.Registry
	cancel context.CancelFunc
	sinks  []*sink
	probes [probeCount]*gateway.Client
	counts [probeCount]*frameCounter
	next   [probeCount]atomic.Int64 // next index each probe expects
	cur    atomic.Pointer[phase]
	errs   [probeCount]error
	wg     sync.WaitGroup
	rng    *rand.Rand
	index  int
}

func logStderr(format string, args ...any) { fmt.Fprintf(os.Stderr, "gateway: "+format+"\n", args...) }

// newFanout is the workload's set-up: server, batching, sinks (half v2
// batches, half sequenced/resume), and two probe clients over netmem
// (one v2, one resume) whose decode loops run until the server closes.
func newFanout(seed int64, sinks int) (*fanout, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ln := &chanListener{conns: make(chan net.Conn), done: make(chan struct{})}
	fo := &fanout{cancel: cancel, reg: telemetry.NewRegistry(), rng: rand.New(rand.NewSource(seed))}
	fo.srv = gateway.NewServerListener(ctx, ln, logStderr)
	fo.srv.Instrument(fo.reg)
	fo.srv.SetBatching(batchReadings, batchDeadline)
	for i := 0; i < sinks; i++ {
		s := newSink(i%2 == 1)
		fo.sinks = append(fo.sinks, s)
		ln.conns <- s
	}
	mem := netmem.Listen("vabperf", 0)
	defer mem.Close()
	opts := []gateway.DialOption{gateway.WithBatching(), gateway.WithResume(0)}
	for p := 0; p < probeCount; p++ {
		cli, err := mem.Dial()
		if err != nil {
			fo.close()
			return nil, err
		}
		srvSide, err := mem.Accept()
		if err != nil {
			fo.close()
			return nil, err
		}
		ln.conns <- srvSide
		fo.counts[p] = &frameCounter{Conn: cli}
		if fo.probes[p], err = gateway.NewClientConn(fo.counts[p], opts[p]); err != nil {
			fo.close()
			return nil, err
		}
		fo.wg.Add(1)
		go fo.probeLoop(p)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !fo.ready(sinks) {
		if time.Now().After(deadline) {
			fo.close()
			return nil, errors.New("sessions did not finish their handshakes")
		}
		time.Sleep(time.Millisecond)
	}
	return fo, nil
}

func (fo *fanout) ready(sinks int) bool {
	if fo.srv.Subscribers() != sinks+probeCount {
		return false
	}
	for _, s := range fo.sinks {
		if !s.ready() {
			return false
		}
	}
	return true
}

// probeLoop decodes every reading a probe receives, checks the stream is
// strictly increasing and gap-free, and records decode times into the
// current phase. The phase's owner reads them only below the progress
// index the loop publishes after writing them.
func (fo *fanout) probeLoop(p int) {
	defer fo.wg.Done()
	c := fo.probes[p]
	for {
		rd, err := c.Next(time.Time{})
		now := time.Now()
		if err != nil {
			if !errors.Is(err, gateway.ErrServerClosing) && !errors.Is(err, net.ErrClosed) && fo.errs[p] == nil {
				fo.errs[p] = fmt.Errorf("probe %d: %w", p, err)
			}
			return
		}
		want := fo.next[p].Load()
		if int64(rd.Count) != want {
			if fo.errs[p] == nil {
				fo.errs[p] = fmt.Errorf("probe %d: reading %d where %d was due (out of order or gap)", p, rd.Count, want)
			}
			return
		}
		if ph := fo.cur.Load(); ph != nil {
			if i := int(rd.Count) - ph.start; i >= 0 && i < ph.n {
				ph.decoded[p][i] = now.UnixNano()
			}
		}
		fo.next[p].Store(want + 1)
	}
}

// reading generates index i's reading from the workload seed.
func (fo *fanout) reading(i int, due time.Time) gateway.Reading {
	return gateway.Reading{NodeAddr: byte(1 + i%64), Seq: byte(i / 64), Count: uint32(i),
		TempC: 4 + 20*fo.rng.Float64(), PressureMbar: 1013 + 500*fo.rng.Float64(),
		SNRdB: 3 + 25*fo.rng.Float64(), Time: due}
}

// publish runs one open-loop phase: reading k is due at t0 + k/rate, is
// stamped with that due time and published when due (all readings
// already due go out back to back); the generator's lateness is
// recorded. It then waits for both probes to decode the phase's last
// reading (bounded by drainTimeout).
func (fo *fanout) publish(rate float64, d time.Duration, traced bool) *phase {
	per := max(1, int(rate*window.Seconds()))
	n := max(1, int(rate*d.Seconds()))
	if n > per {
		n -= n % per // whole windows
	}
	ph := &phase{start: fo.index, n: n, traced: traced, per: per, due: make([]int64, n), late: make([]float64, n)}
	for p := range ph.decoded {
		ph.decoded[p] = make([]int64, n)
	}
	if traced {
		ph.pubUs = make([]float64, n)
		ph.flushRet = make([]int64, n)
	}
	fo.cur.Store(ph)
	batches := fo.reg.Counter("vab_gateway_reading_batches_total", "")
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(time.Millisecond)
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if k%per == 0 {
			ph.cpu = append(ph.cpu, cpuTime())
		}
		rd := fo.reading(fo.index, due)
		ph.due[k] = due.UnixNano()
		start := time.Now()
		ph.late[k] = float64(start.Sub(due)) / 1e6
		if !traced {
			fo.srv.Publish(rd)
		} else {
			b0 := batches.Value()
			fo.srv.Publish(rd)
			end := time.Now()
			ph.pubUs[k] = float64(end.Sub(start)) / 1e3
			if batches.Value() != b0 {
				ph.flushRet[k] = end.UnixNano()
			}
		}
		fo.index++
	}
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) && (fo.next[0].Load() < int64(fo.index) || fo.next[1].Load() < int64(fo.index)) {
		time.Sleep(200 * time.Microsecond)
	}
	ph.cpu = append(ph.cpu, cpuTime())
	return ph
}

// windows returns, per measurement window, the p50 and p99 of both
// probes' due → decode latencies (ms) and the process CPU time per
// reading·session delivery (ns) for subs sessions.
func (ph *phase) windows(upto [probeCount]int64, subs int) (p50, p99, cpuNs []float64) {
	var lat []float64
	for w := 0; w*ph.per < ph.n; w++ {
		lo, hi := w*ph.per, min((w+1)*ph.per, ph.n)
		lat = lat[:0]
		for p := range ph.decoded {
			for i := lo; i < min(hi, int(upto[p])-ph.start); i++ {
				lat = append(lat, float64(ph.decoded[p][i]-ph.due[i])/1e6)
			}
		}
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
		cpuNs = append(cpuNs, float64(ph.cpu[w+1]-ph.cpu[w])/float64((hi-lo)*subs))
	}
	return p50, p99, cpuNs
}

// latencies pools both probes' due → decode latencies of a phase, in ms
// (readings a probe never decoded are left out; they count as failed
// deliveries).
func (ph *phase) latencies(upto [probeCount]int64) []float64 {
	var out []float64
	for p := range ph.decoded {
		k := min(ph.n, int(upto[p])-ph.start)
		for i := 0; i < k; i++ {
			out = append(out, float64(ph.decoded[p][i]-ph.due[i])/1e6)
		}
	}
	return out
}

func (fo *fanout) progress() [probeCount]int64 {
	return [probeCount]int64{fo.next[0].Load(), fo.next[1].Load()}
}

func (fo *fanout) counter(name string) float64 { return float64(fo.reg.Counter(name, "").Value()) }

// close drains the server, lets the probe loops read to the goodbye
// (bounded by drainTimeout), then closes the probe connections and waits
// for the loops.
func (fo *fanout) close() {
	fo.srv.Close()
	done := make(chan struct{})
	go func() {
		fo.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
	}
	for _, c := range fo.probes {
		if c != nil {
			c.Close()
		}
	}
	<-done
	fo.cancel()
}

// settle closes the fan-out and checks its outputs: both probe streams
// were in order and gap-free, every frame the server counted as sent
// arrived at a session, and every published reading reached every
// session (a reading·session lost, e.g. to an eviction, is a failed
// delivery). It returns attempted and failed deliveries.
func (fo *fanout) settle(res *result) (attempted, failed int64) {
	fo.close()
	for _, err := range fo.errs {
		res.check(err == nil, "%v", err)
	}
	var frames, delivered int64
	for _, s := range fo.sinks {
		frames += s.frames
		delivered += s.readings
	}
	for p := range fo.probes {
		if fo.probes[p] != nil {
			frames += fo.counts[p].frames.Load()
			delivered += fo.next[p].Load()
		}
	}
	sent := int64(fo.counter("vab_gateway_frames_sent_total"))
	res.check(frames == sent, "sessions received %d frames, the server counted %d sent", frames, sent)
	attempted = int64(fo.index) * int64(len(fo.sinks)+probeCount)
	return attempted, max(0, attempted-delivered)
}

func runGateway(size gatewaySize, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	var setups []float64
	var fo *fanout
	for i := 0; i < setupRuns; i++ {
		if fo != nil {
			fo.close()
		}
		t := time.Now()
		var err error
		if fo, err = newFanout(seed, size.sinks); err != nil {
			return nil, err
		}
		setups = append(setups, scaledSetup(time.Since(t)))
	}
	res.e2e["setup_s"] = median(setups)
	res.samples["setup_s"] = setups

	fo.publish(size.highRate, size.warmup, false)
	measure := time.Duration((seconds - size.warmup.Seconds()) * float64(time.Second))
	if traced {
		measure /= 5
	}
	heap := startHeapSampler()
	high := fo.publish(size.highRate, max(measure, 100*time.Millisecond), false)
	res.e2e["heap_peak_mb"] = heap.peakMB()
	lat := high.latencies(fo.progress())
	p50, p99, cpu := high.windows(fo.progress(), size.sinks+probeCount)
	res.e2e["op_ms"] = median(p50)
	if traced {
		res.layer["cpu_ns_per_unit"] = median(cpu)
	}
	res.samples["window_lat_p50_ms"] = p50
	res.samples["window_lat_p99_ms"] = p99
	res.samples["window_cpu_ns_per_delivery"] = cpu
	res.samples["late_ms.p99"] = []float64{percentile(high.late, 99)}

	if traced {
		if err := tracedGateway(res, fo, size, measure, lat); err != nil {
			fo.close()
			return nil, err
		}
	}
	res.attempted, res.failed = fo.settle(res)
	if traced {
		L := res.layer
		L["gateway.frames_sent"] = fo.counter("vab_gateway_frames_sent_total")
		L["gateway.batches"] = fo.counter("vab_gateway_reading_batches_total")
		L["gateway.slow_evictions"] = fo.counter("vab_gateway_slow_subscriber_drops_total")
		var writes, frames, bytes, readings int64
		var capture [][]byte
		for _, s := range fo.sinks {
			writes += s.writes
			frames += s.frames
			bytes += s.bytes
			readings += s.readings
			if len(capture) == 0 {
				capture = s.capture
			}
		}
		if frames > 0 && readings > 0 {
			L["gateway.sink_writes_per_frame"] = float64(writes) / float64(frames)
			L["gateway.bytes_per_delivery"] = float64(bytes) / float64(readings)
		}
		L["gateway.decode_ns_per_reading"] = decodeNs(capture)
		rate, err := sustainedRate(seed, size)
		if err != nil {
			return nil, err
		}
		L[fmt.Sprintf("gateway.sustained_readings_per_s.p99_le_%dms", sustainedP99LimitMs)] = rate
	}
	return res, nil
}

// tracedGateway measures the traced phases on the live fan-out: low and
// high rates with Publish timed, and the blocking path of each reading
// that completed a batch.
func tracedGateway(res *result, fo *fanout, size gatewaySize, d time.Duration, untraced []float64) error {
	L := res.layer
	low := fo.publish(size.lowRate, d, true)
	latLow := low.latencies(fo.progress())
	L["gateway.lat_p50_ms.low"] = median(latLow)
	L["gateway.lat_p99_ms.low"] = percentile(latLow, 99)
	high := fo.publish(size.highRate, d, true)
	latHigh := high.latencies(fo.progress())
	L["gateway.lat_p50_ms.high"] = median(latHigh)
	L["gateway.lat_p99_ms.high"] = percentile(latHigh, 99)
	L["gateway.publish_us.p50"] = median(high.pubUs)
	L["gateway.publish_us.p99"] = percentile(high.pubUs, 99)
	L["gateway.publish_us.max"] = percentile(high.pubUs, 100)
	L["gateway.generator_late_ms"] = percentile(high.late, 99)
	L["trace_overhead_pct"] = 100 * (median(latHigh) - median(untraced)) / median(untraced)

	// A reading that completed a batch is delivered along one blocking
	// path: generator lateness, the flushing Publish, then fan-out,
	// write and decode at the probe until it reaches the reading.
	sp := res.spans
	var flushUs, deliverMs, parentMs, childMs []float64
	upto := int(fo.next[0].Load()) - high.start
	for k := 0; k < min(upto, high.n); k++ {
		if high.flushRet[k] == 0 {
			continue
		}
		par := time.Duration(high.decoded[0][k] - high.due[k])
		late := time.Duration(high.late[k] * 1e6)
		pub := time.Duration(high.pubUs[k] * 1e3)
		del := time.Duration(high.decoded[0][k] - high.flushRet[k])
		sp.add("gateway.delivery", "", par)
		sp.add("gateway.generator_late", "gateway.delivery", late)
		sp.add("gateway.flush_publish", "gateway.delivery", pub)
		sp.add("gateway.deliver", "gateway.delivery", del)
		flushUs = append(flushUs, high.pubUs[k])
		deliverMs = append(deliverMs, float64(del)/1e6)
		parentMs = append(parentMs, float64(par)/1e6)
		childMs = append(childMs, float64(late+pub+del)/1e6)
	}
	L["gateway.flush_publish_us"] = mean(flushUs)
	L["gateway.deliver_ms"] = mean(deliverMs)
	res.reconcile(reconLine{parent: "gateway.delivery", parentMs: mean(parentMs), childMs: mean(childMs)})

	return nil
}

// sustainedRate climbs the ladder of offered rates on a fresh fan-out
// until a rung misses the p99 limit, evicts a session or loses a reading
// at a probe, and returns the highest rate that did none of these (0 if
// the first rung failed). Its deliveries are not checked or counted: an
// eviction is how the search ends.
func sustainedRate(seed int64, size gatewaySize) (float64, error) {
	fo, err := newFanout(seed, size.sinks)
	if err != nil {
		return 0, err
	}
	defer fo.close()
	evict := fo.reg.Counter("vab_gateway_slow_subscriber_drops_total", "")
	var best float64
	for _, m := range size.ladder {
		rate := m * size.highRate
		ph := fo.publish(rate, size.rung, false)
		lat := ph.latencies(fo.progress())
		if len(lat) < probeCount*ph.n || evict.Value() > 0 || percentile(lat, 99) > sustainedP99LimitMs {
			break
		}
		best = rate
	}
	return best, nil
}

// decodeNs times the client-side batch decode over captured payloads.
func decodeNs(payloads [][]byte) float64 {
	if len(payloads) == 0 {
		return 0
	}
	var dst []gateway.Reading
	var readings int
	t := time.Now()
	for rep := 0; rep < 200; rep++ {
		for _, p := range payloads {
			var err error
			if dst, err = gateway.DecodeReadingBatchInto(dst[:0], p); err != nil {
				return 0
			}
			readings += len(dst)
		}
	}
	return float64(time.Since(t)) / float64(readings)
}
