package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricSpec names one printed metric. BENCHMARK.json lists the same
// names, units and directions; TestSpecMatchesBenchmarkJSON keeps the two
// in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd metrics are reported by every workload, untraced. Each
// workload defines its operation (what a user waits for); op_ms is the
// latency of that operation:
//
//	calibrate          op_ms = wall time of the 126-cell calibration campaign at nproc
//	                   workers (calibrate_s × 1000)
//	fleet_waveform_64  op_ms = mean cycle wall time (ns_per_node_cycle × nodes / 10⁶)
//	fleet_chaos_500k   as fleet_waveform_64
//	gateway_fanout_1k  op_ms = median due → decoded latency at a probe at the high rate
//	                   (lat_p50_ms.high), the median over 0.5 s windows of each window's median
//
// The three compute-bound workloads repeat their operation while the
// budget lasts (at least minReps times) and report its mean wall time
// divided by the host's slowdown over the run (ref.go); every workload's
// setup_s is scaled the same way. The gateway's latency is mostly
// waiting on timers and goroutine hand-offs and is reported as measured.
//
// Failed operations ÷ attempted ones (error_rate) is the summary's
// failed/attempted pair: a metric that is 0 on a healthy run cannot carry
// a relative bound. Process CPU time per unit of work (cpu_ns_per_unit)
// is a per-layer metric, reported as measured: a neighbour's load
// stretches it as it stretches wall time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"op_ms", "ms", "lower"},
}

// sustainedP99LimitMs is the p99 latency limit behind the gateway's
// sustained-rate metric; the metric's name carries it so BENCHMARK.json
// fixes it.
const sustainedP99LimitMs = 20

var perLayer = []metricSpec{
	// Waveform round (calibrate, fleet_waveform_64; hero checks excluded).
	{"core.round_ms", "ms", "lower"},
	{"core.round_self_us", "us", "lower"},
	{"channel.rebuild_us", "us", "lower"},
	{"reader.query_us", "us", "lower"},
	{"channel.downlink_us", "us", "lower"},
	{"phy.ook_demod_us", "us", "lower"},
	{"node.handle_query_us", "us", "lower"},
	{"channel.roundtrip_ms", "ms", "lower"},
	{"reader.decode_ms", "ms", "lower"},
	{"phy.acquire_ms", "ms", "lower"},
	{"phy.demod_us", "us", "lower"},
	{"link.decode_us", "us", "lower"},
	{"core.allocs_per_round", "count", "lower"},
	{"core.bytes_per_round", "B", "lower"},
	{"reader.frame_ok_ratio", "ratio", "higher"},
	{"reader.acquire_fail_ratio", "ratio", "lower"},
	{"reader.reacquires_per_round", "count", "lower"},
	// mac wave scheduler (fleet_waveform_64).
	{"mac.cycle_ms", "ms", "lower"},
	{"mac.polls_per_cycle", "count", "lower"},
	{"mac.retries_per_cycle", "count", "lower"},
	{"mac.delivery_ratio", "ratio", "higher"},
	{"mac.pool_speedup", "ratio", "higher"},
	{"core.fleet_allocs_per_cycle", "count", "lower"},
	{"core.fleet_mb_per_cycle", "MB", "lower"},
	// Abstract tier (fleet_chaos_500k).
	{"linksim.cycle_ms", "ms", "lower"},
	{"linksim.cycle_max_ms", "ms", "lower"},
	{"linksim.cycle_self_ms", "ms", "lower"},
	{"linksim.lookup_ns", "ns", "lower"},
	{"mac.fold_ns", "ns", "lower"},
	{"mac.rate_observe_ns", "ns", "lower"},
	{"linksim.hero_check_ms", "ms", "lower"},
	{"linksim.polls_per_cycle", "count", "lower"},
	{"linksim.retries_per_cycle", "count", "lower"},
	{"linksim.probes_per_cycle", "count", "lower"},
	{"linksim.quarantined", "count", "lower"},
	{"linksim.delivery_ratio", "ratio", "higher"},
	{"linksim.hero_checks", "count", "higher"},
	{"linksim.hero_diverged", "count", "lower"},
	{"linksim.allocs_per_cycle", "count", "lower"},
	{"linksim.bytes_per_cycle", "B", "lower"},
	// Delivery leg (gateway_fanout_1k).
	{"gateway.publish_us.p50", "us", "lower"},
	{"gateway.publish_us.p99", "us", "lower"},
	{"gateway.publish_us.max", "us", "lower"},
	{"gateway.flush_publish_us", "us", "lower"},
	{"gateway.deliver_ms", "ms", "lower"},
	{"gateway.sink_writes_per_frame", "ratio", "lower"},
	{"gateway.bytes_per_delivery", "B", "lower"},
	{"gateway.decode_ns_per_reading", "ns", "lower"},
	{"gateway.frames_sent", "count", "lower"},
	{"gateway.batches", "count", "lower"},
	{"gateway.slow_evictions", "count", "lower"},
	{"gateway.generator_late_ms", "ms", "lower"},
	{"gateway.lat_p50_ms.low", "ms", "lower"},
	{"gateway.lat_p99_ms.low", "ms", "lower"},
	{"gateway.lat_p50_ms.high", "ms", "lower"},
	{"gateway.lat_p99_ms.high", "ms", "lower"},
	{fmt.Sprintf("gateway.sustained_readings_per_s.p99_le_%dms", sustainedP99LimitMs), "1/s", "higher"},
	// Every workload.
	{"cpu_ns_per_unit", "ns", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"trace.reconcile_err_pct", "%", "lower"},
}

// reconcileMarginPct is the stated margin of the traced run: for every
// parent span (round, cycle, delivery) the unattributed remainder —
// parent minus its children — stays within this share of the parent,
// unless the remainder is itself a named layer (linksim.cycle_self_ms),
// in which case only the children's overshoot is bounded.
const reconcileMarginPct = 10

// result is what a workload run returns.
type result struct {
	attempted, failed int64
	problems          []string // failed output checks, one line each
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string][]float64
	spans             *spanSet
	recon             []reconLine
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string][]float64{}, spans: newSpanSet()}
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// reconLine is one parent span's reconciliation: children + self = parent.
type reconLine struct {
	parent   string
	parentMs float64 // mean parent span
	childMs  float64 // mean children total per parent
	selfOK   bool    // remainder may be a layer of its own (only overshoot bounded)
}

func (l reconLine) errPct() float64 {
	if l.parentMs <= 0 {
		return 0
	}
	e := 100 * (l.parentMs - l.childMs) / l.parentMs
	if l.selfOK && e > 0 {
		return 0
	}
	return math.Abs(e)
}

// reconcile adds a reconciliation line and folds its error into
// trace.reconcile_err_pct (the worst line wins).
func (r *result) reconcile(l reconLine) {
	r.recon = append(r.recon, l)
	if e := l.errPct(); e > r.layer["trace.reconcile_err_pct"] {
		r.layer["trace.reconcile_err_pct"] = e
	}
}

// spanSet accumulates named spans timed around calls into a layer.
type spanSet struct {
	mu    sync.Mutex
	order []string
	m     map[string]*spanAgg
}

type spanAgg struct {
	parent string
	n      int64
	total  time.Duration
}

func newSpanSet() *spanSet { return &spanSet{m: map[string]*spanAgg{}} }

func (s *spanSet) add(name, parent string, d time.Duration) {
	s.mu.Lock()
	a := s.m[name]
	if a == nil {
		a = &spanAgg{parent: parent}
		s.m[name] = a
		s.order = append(s.order, name)
	}
	a.n++
	a.total += d
	s.mu.Unlock()
}

// mean returns the span's mean duration (0 if never recorded).
func (s *spanSet) mean(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.m[name]; a != nil && a.n > 0 {
		return a.total / time.Duration(a.n)
	}
	return 0
}

func (s *spanSet) count(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.m[name]; a != nil {
		return a.n
	}
	return 0
}

// printTable writes the traced run's per-layer table: every span with its
// count, mean and share of its parent's mean, then the reconciliation.
func printTable(w io.Writer, workload string, res *result) {
	s := res.spans
	fmt.Fprintf(w, "per-layer spans, %s (timed around public calls from the benchmark)\n", workload)
	fmt.Fprintf(w, "  %-28s %-22s %10s %14s %8s\n", "span", "parent", "count", "mean_us", "%parent")
	for _, name := range s.order {
		a := s.m[name]
		mean := float64(a.total) / float64(a.n) / 1e3
		share := "-"
		if p := s.m[a.parent]; p != nil && p.total > 0 {
			share = fmt.Sprintf("%.1f", 100*mean/(float64(p.total)/float64(p.n)/1e3))
		}
		fmt.Fprintf(w, "  %-28s %-22s %10d %14.3f %8s\n", name, a.parent, a.n, mean, share)
	}
	for _, l := range res.recon {
		verdict := "ok"
		if l.errPct() > reconcileMarginPct {
			verdict = "OUTSIDE MARGIN"
		}
		fmt.Fprintf(w, "  reconcile %-22s parent %.3f ms = children %.3f ms + self %.3f ms; error %.1f%% (margin %d%%) %s\n",
			l.parent, l.parentMs, l.childMs, l.parentMs-l.childMs, l.errPct(), reconcileMarginPct, verdict)
	}
	fmt.Fprintf(w, "  trace_overhead_pct %.1f\n", res.layer["trace_overhead_pct"])
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between order statistics; v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live heap every 2 ms while it runs — the heap
// the last garbage collection found reachable (runtime/metrics
// /gc/heap/live:bytes) — after a collection when it starts and once more
// after one when it stops, so the figure neither inherits set-up garbage
// nor misses growth since the last automatic collection. The live heap does not
// depend on when the collector happened to run; its largest sample still
// does (it catches whichever transient buffers a collection happened to
// see), so the reported peak is the 95th percentile over time.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]float64, 0, 1<<15)}
	runtime.GC()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.read()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func (h *heapSampler) read() {
	metrics.Read(liveHeap)
	h.samples = append(h.samples, float64(liveHeap[0].Value.Uint64()))
}

// peakMB stops the sampler and returns the peak live heap in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.read()
	return percentile(h.samples, 95) / 1e6
}

// allocs returns the process's cumulative heap allocation count and bytes.
func allocs() (n, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// host is the fingerprint every record carries.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func fingerprint() host {
	h := host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Source: sourceDigest(".")}
	// Only a checkout that is itself a git work tree names its commit; git
	// is not asked to search the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// record identifies the code it measured even where no VCS metadata
// exists. Build output directories (dot-prefixed) are skipped.
func sourceDigest(root string) string {
	hash := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(hash, "%s %d\n", filepath.ToSlash(path), len(data))
		hash.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(hash.Sum(nil))
}

// minReps is the fewest repetitions a run makes of its timed work,
// whatever its budget; op_ms is the median over the repetitions.
const minReps = 3

// setupRuns is how many times each run sets its workload up; setup_s is
// the median.
const setupRuns = 9

// timeLeft reports whether another iteration estimated to take est still
// fits the budget that started at start; the first least iterations
// always run.
func timeLeft(start time.Time, budget float64, est time.Duration, done, least int) bool {
	if done < least {
		return true
	}
	return time.Since(start)+est <= time.Duration(budget*float64(time.Second))
}
