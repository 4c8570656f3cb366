// Command perfbench is the repository's benchmark. It runs one of four
// workloads for a fixed time, checks every run's output against committed
// expected values, and prints the end-to-end metrics (untraced) or the
// per-layer metrics (traced) as one JSON object on its last line.
//
//	perfbench --workload cache-concurrent --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sample is one measured run.
type sample struct {
	setup time.Duration
	units int // attempted units: 1 run, or the grid's cells
	obs   any // what the run must reproduce
	aux   any // what else verify needs (paper-quick: per-section cell outcomes)
	layer map[string]float64
	tr    *tracer // the run's tracer, nil when untraced

	wall     time.Duration
	setups   []float64 // set-up-only samples taken after the run
	allocMB  float64
	rssMB    float64
	gcCycles float64
	failed   int      // failed units
	notes    []string // why they failed
}

// impl is one workload.
type impl interface {
	// run executes one run, set-up included; tr is nil when untraced.
	run(tr *tracer) (*sample, error)
	// setupOnly repeats one run's set-up without running it.
	setupOnly() (time.Duration, error)
	// verify checks a run's observation against the expected values and
	// the workload's invariants, returning the failed units and why.
	verify(s *sample) (int, []string)
	// errUnits is how many units a run that returned an error counts.
	errUnits() int
}

// workloads lists the benchmark's workloads; README.md and BENCHMARK.json
// give the reason each was chosen.
var workloads = []string{"paper-quick", "cache-concurrent", "cache-pressure", "nfs-cacheless"}

func newImpl(name string, seed int64, outDir string, want *expectations) (impl, error) {
	if name == "paper-quick" {
		return &paperImpl{outDir: filepath.Join(outDir, "paper-quick"), want: want.PaperQuick}, nil
	}
	w, ok := simWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return &simImpl{w: w, seed: seed, in: Generate(w.shape, seed), want: want.seed(name, seed)}, nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	record   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-quick, cache-concurrent, cache-pressure or nfs-cacheless")
	fs.Int64Var(&o.seed, "seed", 1, "input seed of the simulator workloads (paper-quick ignores it)")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long to measure; every run started within it completes")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for CSVs, spans and the CPU profile")
	fs.StringVar(&o.record, "record", "", "run once and record the observed values for this workload and seed into this expected-values file, instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	want, err := loadExpectations(expectedJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w, err := newImpl(o.workload, o.seed, o.outDir, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if o.record != "" {
		if err := record(w, o); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := bench(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs w once with the process quiesced and its peak RSS reset.
func measure(w impl, tr *tracer) *sample {
	quiesce()
	a0, g0 := goCounters()
	start := time.Now()
	s, err := w.run(tr)
	wall := time.Since(start)
	a1, g1 := goCounters()
	if err != nil {
		s = &sample{units: w.errUnits(), failed: w.errUnits(), notes: []string{err.Error()}}
	}
	s.wall = wall
	s.allocMB = float64(a1-a0) / 1e6
	s.gcCycles = float64(g1 - g0)
	s.rssMB = peakRSSMB()
	return s
}

// loop runs w repeatedly for about d: a run starts only while the previous
// run's duration still fits, and at least one run is made.
func loop(w impl, d time.Duration, traced bool) []*sample {
	var out []*sample
	start := time.Now()
	for {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		s := measure(w, tr)
		if tr != nil {
			s.layer = mergeLayer(s.layer, tracerLayer(tr))
			s.tr = tr
		} else {
			s.setups = setupBurst(w)
		}
		out = append(out, s)
		if time.Since(start)+s.wall > d {
			return out
		}
	}
}

func mergeLayer(a, b map[string]float64) map[string]float64 {
	if a == nil {
		a = map[string]float64{}
	}
	for k, v := range b {
		a[k] = v
	}
	return a
}

// checkAll verifies every run and that all runs reproduced the first one's
// observation (decorated or not).
func checkAll(w impl, samples []*sample) (attempted, failed int) {
	var first any
	for _, s := range samples {
		attempted += s.units
		if s.obs == nil {
			failed += s.failed
			continue
		}
		f, notes := w.verify(s)
		if first == nil {
			first = s.obs
		} else if !reflect.DeepEqual(s.obs, first) && f == 0 {
			f = s.units
			notes = append(notes, "output differs from the invocation's first run")
		}
		s.failed += f
		s.notes = append(s.notes, notes...)
		failed += s.failed
	}
	return attempted, failed
}

func bench(w impl, o options, stdout io.Writer) (*result, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	var untraced, traced []*sample
	var cpu map[string]float64
	if !o.trace {
		untraced = loop(w, window, false)
	} else {
		untraced = loop(w, window/2, false)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced = loop(w, window/2, true)
		pprof.StopCPUProfile()
		var err error
		if cpu, err = attributeProfile(prof.Bytes()); err != nil {
			return nil, err
		}
		if err := saveTrace(o, prof.Bytes(), traced); err != nil {
			return nil, err
		}
	}
	all := append(append([]*sample(nil), untraced...), traced...)
	attempted, failed := checkAll(w, all)
	for _, s := range all {
		for _, n := range s.notes {
			fmt.Fprintf(stdout, "FAILED %s: %s\n", o.workload, n)
		}
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !o.trace {
		var setups []float64
		for _, s := range untraced {
			setups = append(setups, s.setup.Seconds())
			setups = append(setups, s.setups...)
		}
		res.Metrics["wall_s"] = metric{median(collect(untraced, func(s *sample) float64 { return s.wall.Seconds() })), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["alloc_mb"] = metric{median(collect(untraced, func(s *sample) float64 { return s.allocMB })), "MB"}
		res.Metrics["max_rss_mb"] = metric{median(collect(untraced, func(s *sample) float64 { return s.rssMB })), "MB"}
		printEndToEnd(stdout, o, res, untraced, len(setups))
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{0, m.unit}
	}
	for name := range traced[0].layer {
		vals := collect(traced, func(s *sample) float64 { return s.layer[name] })
		res.Metrics[name] = metric{median(vals), res.Metrics[name].Unit}
	}
	for m, secs := range cpu {
		res.Metrics["cpu."+m+"_s"] = metric{secs / float64(len(traced)), "s"}
	}
	res.Metrics["go.gc_cycles"] = metric{median(collect(untraced, func(s *sample) float64 { return s.gcCycles })), "count"}
	wallU := median(collect(untraced, func(s *sample) float64 { return s.wall.Seconds() }))
	wallT := median(collect(traced, func(s *sample) float64 { return s.wall.Seconds() }))
	res.Metrics["trace.overhead_s"] = metric{wallT - wallU, "s"}
	res.Metrics["trace.runs"] = metric{float64(len(traced)), "count"}
	for name := range res.Metrics {
		if !knownLayerMetric(name) {
			return nil, fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	printLayers(stdout, o, res, wallU, wallT, len(untraced), len(traced))
	return res, nil
}

// setupBurst repeats the set-up alone after a run, up to 10 times or 50 ms,
// so setup_s is a median over many samples spread over the whole measuring
// window even when runs are long.
func setupBurst(w impl) []float64 {
	var out []float64
	quiesce()
	start := time.Now()
	for len(out) < 10 && time.Since(start) < 50*time.Millisecond {
		d, err := w.setupOnly()
		if err != nil {
			return out
		}
		out = append(out, d.Seconds())
	}
	return out
}

func collect(ss []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, f(s))
	}
	return out
}

// saveTrace writes the CPU profile and the last traced run's spans.
func saveTrace(o options, prof []byte, traced []*sample) error {
	dir := filepath.Join(o.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, o.workload+".cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	return traced[len(traced)-1].tr.writeSpans(filepath.Join(dir, o.workload+".spans.csv.gz"))
}

func printEndToEnd(w io.Writer, o options, res *result, runs []*sample, setups int) {
	fmt.Fprintf(w, "== %s seed %d: %d runs, %d set-ups ==\n", o.workload, o.seed, len(runs), setups)
	fmt.Fprint(w, "run walls (s):")
	for _, s := range runs {
		fmt.Fprintf(w, " %.3f", s.wall.Seconds())
	}
	fmt.Fprintln(w)
	printMetrics(w, res)
	if o.workload == "paper-quick" && len(runs) > 0 && runs[0].layer != nil {
		fmt.Fprintf(w, "%-26s %16.6f %s\n", "cache_err_pct", runs[0].layer["exp.cache_err_pct"], "%")
	}
	fmt.Fprintf(w, "%-26s %16.6f %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), unitOf(o.workload))
}

func unitOf(workload string) string {
	if workload == "paper-quick" {
		return "cells"
	}
	return "runs"
}

func printLayers(w io.Writer, o options, res *result, wallU, wallT float64, nu, nt int) {
	fmt.Fprintf(w, "== %s seed %d traced: %d untraced runs (median wall %.4f s), %d traced runs (median wall %.4f s) ==\n",
		o.workload, o.seed, nu, wallU, nt, wallT)
	var cpuTotal float64
	for _, m := range cpuModules {
		cpuTotal += res.Metrics["cpu."+m+"_s"].Value
	}
	fmt.Fprintln(w, "-- CPU by module (per traced run) --")
	for _, m := range cpuModules {
		v := res.Metrics["cpu."+m+"_s"].Value
		share := 0.0
		if cpuTotal > 0 {
			share = 100 * v / cpuTotal
		}
		fmt.Fprintf(w, "cpu.%-10s %10.4f s %6.1f%%\n", m+"_s", v, share)
	}
	fmt.Fprintln(w, "-- span self time by layer (per traced run) --")
	for _, l := range layerNames {
		fmt.Fprintf(w, "self.%-16s %10.4f s\n", l+"_s", res.Metrics["self."+l+"_s"].Value)
	}
	fmt.Fprintln(w, "-- per-layer metrics --")
	printMetrics(w, res)
}

// printMetrics lists the result's metrics by name.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
