// Command vabperf is the repository's end-to-end benchmark: one command
// that runs a named workload over the three pipelines (waveform tier,
// abstract tier, gateway delivery leg), checks the workload's outputs, and
// prints every metric by name with its unit.
//
//	bash vabperf/run.sh --workload calibrate --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics, measured untraced; with --trace 1 they are the
// per-layer metrics of a traced run, timed around the public calls the
// benchmark makes into each package. The lines before it hold a record
// of the raw samples and the host, and (traced runs) a per-layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// workload is one named set of inputs. run measures for about seconds
// seconds; traced selects the per-layer run. Why each workload exists is
// recorded beside its name in BENCHMARK.json.
type workload struct {
	name string
	run  func(seed int64, seconds float64, traced bool) (*result, error)
}

var workloads = []workload{
	{"calibrate", func(seed int64, s float64, tr bool) (*result, error) {
		return runCalibrate(defaultCalibrateSize(), seed, s, tr)
	}},
	{"fleet_waveform_64", func(seed int64, s float64, tr bool) (*result, error) {
		return runWaveFleet(defaultWaveFleetSize(), seed, s, tr)
	}},
	{"fleet_chaos_500k", func(seed int64, s float64, tr bool) (*result, error) {
		return runChaosFleet(defaultChaosSize(), seed, s, tr)
	}},
	{"gateway_fanout_1k", func(seed int64, s float64, tr bool) (*result, error) {
		return runGateway(defaultGatewaySize(), seed, s, tr)
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vabperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 15, "measurement budget per run, s")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "vabperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "vabperf: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	initRef()
	res, err := w.run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "vabperf: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range res.problems {
		fmt.Fprintf(stderr, "vabperf: %s: check failed: %s\n", w.name, msg)
	}
	if err := emit(stdout, w.name, *seed, *trace == 1, res); err != nil {
		fmt.Fprintf(stderr, "vabperf: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output, the one a benchmark runner parses.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record is the line before the summary: what a reader needs to trust or
// re-derive the summary — raw per-run samples and the host they came from.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Traced   bool                 `json:"traced"`
	Host     host                 `json:"host"`
	Samples  map[string][]float64 `json:"samples"`
	Problems []string             `json:"problems,omitempty"`
}

// emit prints the traced per-layer table, the record line and the summary
// line. Traced runs print every per-layer metric — zero where the layer
// does no work on this workload — and untraced runs every end-to-end one.
func emit(w io.Writer, name string, seed int64, traced bool, res *result) error {
	specs, values := endToEnd, res.e2e
	if traced {
		specs, values = perLayer, res.layer
		printTable(w, name, res)
	}
	out := summary{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricOut, len(specs)),
	}
	for _, s := range specs {
		out.Metrics[s.name] = metricOut{Value: values[s.name], Unit: s.unit}
	}
	if missing := unknownMetrics(values, specs); len(missing) > 0 {
		return fmt.Errorf("%s reported metrics absent from the spec: %v", name, missing)
	}
	rec := record{Workload: name, Seed: seed, Traced: traced, Host: fingerprint(),
		Samples: res.samples, Problems: res.problems}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(out)
}

func unknownMetrics(values map[string]float64, specs []metricSpec) []string {
	known := make(map[string]bool, len(specs))
	for _, s := range specs {
		known[s.name] = true
	}
	var out []string
	for k := range values {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
