// Command pcsim runs one page-cache simulation with user-chosen parameters
// — a quick way to explore cache behaviour outside the paper's fixed
// experiment grid. Every run goes through scenario.Run: -scenario runs a
// scenario document as written, and the other modes compile their flags
// into one. Without -platform, the flags describe a one-host platform (host
// node0, disk node0.disk, partition scratch) running the built-in synthetic
// pipeline; -platform runs it on the first host and partition of a JSON
// platform instead, and -workflow replaces it with a JSON workflow.
//
// Examples:
//
//	pcsim -size 20GB -mode writeback
//	pcsim -size 3GB -mode cacheless -instances 8
//	pcsim -size 10GB -mode writeback -ram 32GiB -dirty-ratio 0.4 -csv mem.csv
//	pcsim -size 20GB -mode writeback -ram 32GiB -policy clock
//	pcsim -size 20GB -mode writeback -ram 32GiB -writeback file-rr -dirty-background 0.1
//	pcsim -platform cluster.json -workflow nighres.json
//	pcsim -scenario testdata/scenarios/nfs-server-restart.json
//	pcsim -scenario testdata/scenarios/random-chaos.json -chaos-seed 7
//	pcsim -scenario testdata/scenarios/mixed-disk-slowdown.json
//
// Platform JSON hosts accept "writebackPolicy" and "dirtyBackgroundRatio"
// (overridden host-wide by -writeback and -dirty-background), and
// "perDeviceWriteback": true, which gives each of the host's disks its own
// writeback domain — per-device dirty thresholds scaled by bandwidth
// share, a flusher process per device with writer-driven wakeups, and
// per-device writer-throttle accounting. Per-disk "dirtyRatio" /
// "dirtyBackgroundRatio" override a single domain's scaled thresholds
// (they require the host to set perDeviceWriteback). Scenario documents
// can bound a device's writer stalls with the "max-device-throttle"
// assertion; mixed-disk-slowdown.json is the worked example.
//
// The repeated-iteration pipeline (-iterations) reads one input file,
// computes, and rewrites a scratch output every iteration; once K
// consecutive iterations produce matching phase signatures the engine skips
// the rest analytically (disable with -ffwd=false; tune with -ffwd-k and
// -ffwd-tol). -ffwd-oracle runs both paths and reports the makespan and
// hit-ratio error, failing above 1% makespan error.
//
// -snapshot-out saves the final cache state (and the backing-file list) as
// versioned JSON, in every mode. -snapshot-in warm-starts the run from such
// a file exactly as a scenario's "warmup": {"snapshotFile": ...} stanza
// does: block timestamps are rebased to the new run's t=0 and the cache
// counters start from zero, so the read hit ratio counts this run only.
//
//	pcsim -iterations 60 -size 1GB -ram 8GiB -ffwd-oracle
//	pcsim -iterations 500 -size 1GB -ram 8GiB
//	pcsim -size 20GB -snapshot-out warm.snap.json
//	pcsim -size 20GB -snapshot-in warm.snap.json
//
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles of
// the run for go tool pprof; stdout is the same with or without them.
//
//	pcsim -size 20GB -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/phase"
	"repro/internal/platform"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/units"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout))
}

// oracleMaxErrPct is the makespan error (percent) above which -ffwd-oracle
// fails the run.
const oracleMaxErrPct = 1.0

// Main runs the pcsim CLI and returns a process exit code.
func Main(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("pcsim", flag.ContinueOnError)
	var (
		sizeStr    = fs.String("size", "20GB", "per-file size (e.g. 3GB, 500MB)")
		modeStr    = fs.String("mode", "writeback", "cacheless | writeback | writethrough | directio")
		instances  = fs.Int("instances", 1, "concurrent application instances")
		ramStr     = fs.String("ram", "250GiB", "host RAM")
		chunkStr   = fs.String("chunk", "100MB", "I/O chunk size")
		dirtyRatio = fs.Float64("dirty-ratio", 0.20, "vm.dirty_ratio as a fraction")
		policyStr  = fs.String("policy", "", "cache replacement policy (default: lru; also clock, fifo, lfu)")
		wbStr      = fs.String("writeback", "", "writeback policy (default: list-order; also oldest-first, file-rr, proportional)")
		dirtyBG    = fs.Float64("dirty-background", 0, "vm.dirty_background_ratio as a fraction (0 disables background writeback)")
		memBW      = fs.Float64("mem-bw", 4812, "memory bandwidth (MBps, symmetric)")
		diskBW     = fs.Float64("disk-bw", 465, "disk bandwidth (MBps, symmetric)")
		cpuSec     = fs.Float64("cpu", -1, "injected CPU seconds per task (default: Table I fit)")
		csvPath    = fs.String("csv", "", "write the memory profile CSV here")
		platPath   = fs.String("platform", "", "platform description JSON (overrides -ram/-mem-bw/-disk-bw)")
		wfPath     = fs.String("workflow", "", "workflow description JSON (runs instead of the synthetic pipeline; requires -platform)")
		scenPath   = fs.String("scenario", "", "scenario description JSON (platform + workloads + chaos + assertions; ignores the other flags but -chaos-seed and -snapshot-out)")
		chaosSeed  = fs.Int64("chaos-seed", 0, "override the scenario's chaos seed (with -scenario)")
		iterations = fs.Int("iterations", 0, "run the repeated-iteration pipeline with this many iterations instead of the synthetic pipeline")
		ffwdOn     = fs.Bool("ffwd", true, "fast-forward steady-state iterations analytically (with -iterations)")
		ffwdOracle = fs.Bool("ffwd-oracle", false, "run both the exact and fast-forwarded paths and report the error (with -iterations)")
		ffwdK      = fs.Int("ffwd-k", phase.DefaultK, "consecutive matching iterations before steady state is declared")
		ffwdTol    = fs.Float64("ffwd-tol", phase.DefaultTol, "relative tolerance on the continuous phase-signature components")
		snapOut    = fs.String("snapshot-out", "", "write the final cache state to this snapshot file")
		snapIn     = fs.String("snapshot-in", "", "warm-start the cache from this snapshot file")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to FILE")
		memProf    = fs.String("memprofile", "", "write a heap profile (runtime/pprof) to FILE at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(2, err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(1, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *scenPath != "" {
		seedSet := false
		fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "chaos-seed" })
		doc, err := scenario.Load(*scenPath)
		if err != nil {
			return fail(2, err)
		}
		res, err := scenario.Run(doc, scenario.RunOpts{ChaosSeed: *chaosSeed, OverrideSeed: seedSet})
		if err != nil {
			return fail(2, err)
		}
		res.Report(stdout)
		if code := writeSnapshot(res, *snapOut, stdout); code != 0 {
			return code
		}
		if !res.Passed {
			fmt.Fprintln(os.Stderr, "pcsim: scenario assertions failed")
			return 1
		}
		return 0
	}

	// Validate the flags, then compile them into a one-workload document.
	if err := core.ValidatePolicyName(*policyStr); err != nil {
		// Fail fast at configuration time, listing the registered policies.
		return fail(2, err)
	}
	if err := core.ValidateWritebackPolicyName(*wbStr); err != nil {
		return fail(2, err)
	}
	wl := scenario.WorkloadDoc{
		Name: "app", Host: "node0", Kind: "synthetic", Partition: "scratch",
		Size: *sizeStr,
	}
	if *cpuSec >= 0 {
		wl.CPUS = cpuSec
	}
	doc := &scenario.Doc{Name: "pcsim", Mode: *modeStr, Chunk: *chunkStr}
	var opts scenario.RunOpts
	var size, ram int64
	if *wfPath != "" || *platPath != "" {
		if *platPath == "" {
			return fail(2, fmt.Errorf("-workflow requires -platform"))
		}
		if doc.Platform, err = loadPlatform(*platPath, *policyStr, *wbStr, *dirtyBG); err != nil {
			return fail(1, err)
		}
		// Workload placement: the first configured host and its first
		// partition.
		first := doc.Platform.Hosts[0]
		if len(first.Disks) == 0 {
			return fail(2, fmt.Errorf("first platform host has no disk to place the workload on"))
		}
		wl.Host, wl.Partition = first.Name, first.Disks[0].Partition
		if *wfPath != "" {
			wl.Kind, wl.WorkflowFile = "workflow", *wfPath
		}
	} else {
		if size, err = units.ParseBytes(*sizeStr); err != nil {
			return fail(2, err)
		}
		if ram, err = units.ParseBytes(*ramStr); err != nil {
			return fail(2, err)
		}
		if *instances < 1 {
			return fail(2, fmt.Errorf("-instances must be positive"))
		}
		cfg := core.DefaultConfig(ram)
		cfg.DirtyRatio, cfg.DirtyBackgroundRatio = *dirtyRatio, *dirtyBG
		cfg.Policy, cfg.Writeback = *policyStr, *wbStr
		if err := cfg.Validate(); err != nil {
			return fail(2, err)
		}
		if *ffwdOracle && *iterations <= 0 {
			return fail(2, fmt.Errorf("-ffwd-oracle requires -iterations"))
		}
		doc.DirtyRatio = *dirtyRatio
		capacity := 100*size*int64(*instances) + units.GiB
		if *iterations > 0 {
			wl.Name, wl.Kind, wl.Iterations = "iter", "iterative", *iterations
			capacity = 4*size + units.GiB
			if *ffwdOn {
				opts.FastForward = &engine.FFwdConfig{Phase: phase.Config{K: *ffwdK, Tol: *ffwdTol}}
			}
		} else {
			wl.Instances = *instances
			doc.TraceMemS = 1
		}
		doc.Platform = &platform.Config{Hosts: []platform.HostConfig{{
			Name: "node0", Cores: 32, GFlops: 1, RAM: *ramStr,
			MemReadMBps: *memBW, MemWriteMBps: *memBW,
			CachePolicy: *policyStr, WritebackPolicy: *wbStr, DirtyBackgroundRatio: *dirtyBG,
			Disks: []platform.DiskConfig{{
				Name: "node0.disk", ReadMBps: *diskBW, WriteMBps: *diskBW,
				Capacity: strconv.FormatInt(capacity, 10), Partition: "scratch",
			}},
		}}}
	}
	doc.Workloads = []scenario.WorkloadDoc{wl}
	if *snapIn != "" {
		doc.Warmup = &scenario.WarmupDoc{SnapshotFile: *snapIn}
	}
	if err := doc.Validate(); err != nil {
		return fail(2, err)
	}

	if *ffwdOracle && wl.Kind == "iterative" {
		return runOracle(doc, phase.Config{K: *ffwdK, Tol: *ffwdTol}, size, stdout)
	}
	res, err := run(doc, opts)
	if err != nil {
		return fail(1, err)
	}
	host := res.Hosts[wl.Host]
	switch {
	case wl.Kind == "workflow":
		rep := res.Workflows[wl.Name]
		fmt.Fprintf(stdout, "pcsim: workflow %s on platform %s (host %s, mode %s)\n",
			rep.Name, *platPath, wl.Host, host.Mode)
		t := &textplot.Table{Header: []string{"task", "start (s)", "end (s)"}}
		for _, tt := range rep.OrderedTimings() {
			t.Add(tt.Name, fmt.Sprintf("%.2f", tt.Start), fmt.Sprintf("%.2f", tt.End))
		}
		t.Render(stdout)
		fmt.Fprintf(stdout, "makespan: %s\n", units.FormatSeconds(rep.Makespan))
	case *platPath != "":
		fmt.Fprintf(stdout, "pcsim: synthetic pipeline on platform %s (host %s, mode %s)\n",
			*platPath, wl.Host, host.Mode)
		printOps(res.Sim, stdout)
		fmt.Fprintf(stdout, "makespan: %s\n", units.FormatSeconds(res.Makespan))
	case wl.Kind == "iterative":
		fmt.Fprintf(stdout, "pcsim: iterative pipeline, %d iterations, %s per file, mode=%s, RAM=%s\n",
			wl.Iterations, units.FormatBytes(size), host.Mode, units.FormatBytes(ram))
		if rep := res.Sim.FFwdReport(); rep.Steady {
			fmt.Fprintf(stdout, "fast-forward: simulated %d iterations, skipped %d analytically (steady at t=%.6gs, iteration period %.6gs)\n",
				rep.IterationsSimulated, rep.IterationsSkipped, rep.SteadyAtSimS, rep.IterSimS)
		} else if rep.Enabled {
			fmt.Fprintln(stdout, "fast-forward: no steady state detected; every iteration simulated")
		}
		fmt.Fprintf(stdout, "makespan: %s   read hit ratio: %.4f\n",
			units.FormatSeconds(res.Makespan), hitRatio(host))
	default:
		fmt.Fprintf(stdout, "pcsim: %d instance(s), %s files, mode=%s, RAM=%s\n",
			wl.Instances, units.FormatBytes(size), host.Mode, units.FormatBytes(ram))
		printOps(res.Sim, stdout)
		fmt.Fprintf(stdout, "makespan: %s   read total: %.1fs   write total: %.1fs\n",
			units.FormatSeconds(res.Makespan),
			res.Sim.Log.Duration("read", -1), res.Sim.Log.Duration("write", -1))
	}
	if code := writeSnapshot(res, *snapOut, stdout); code != 0 {
		return code
	}
	if *csvPath != "" && host.MemTrace != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := host.MemTrace.WriteCSV(f); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "memory profile written to %s\n", *csvPath)
	}
	return 0
}

// fail reports err on stderr and returns the exit code.
func fail(code int, err error) int {
	fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
	return code
}

// loadPlatform reads a platform description and applies the host-wide flag
// overrides: a non-empty policy (writeback) replaces every host's
// "cachePolicy" ("writebackPolicy"), and a positive dirtyBG every host's
// "dirtyBackgroundRatio".
func loadPlatform(path, policy, writeback string, dirtyBG float64) (*platform.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := platform.LoadConfig(f)
	if err != nil {
		return nil, err
	}
	for i := range cfg.Hosts {
		h := &cfg.Hosts[i]
		if policy != "" {
			h.CachePolicy = policy
		}
		if writeback != "" {
			h.WritebackPolicy = writeback
		}
		if dirtyBG > 0 {
			h.DirtyBackgroundRatio = dirtyBG
		}
	}
	return cfg, nil
}

// run executes a compiled document; a failed workload fails the run.
func run(doc *scenario.Doc, opts scenario.RunOpts) (*scenario.Result, error) {
	res, err := scenario.Run(doc, opts)
	if err != nil {
		return nil, err
	}
	return res, res.FirstErr()
}

// runOracle runs the iterative document exactly and fast-forwarded, back to
// back, and reports the makespan and hit-ratio error, failing when the
// makespan error exceeds oracleMaxErrPct.
func runOracle(doc *scenario.Doc, det phase.Config, size int64, stdout io.Writer) int {
	t0 := time.Now()
	ex, err := run(doc, scenario.RunOpts{})
	if err != nil {
		return fail(1, fmt.Errorf("exact run: %w", err))
	}
	exWall := time.Since(t0)
	t1 := time.Now()
	ff, err := run(doc, scenario.RunOpts{FastForward: &engine.FFwdConfig{Phase: det}})
	if err != nil {
		return fail(1, fmt.Errorf("fast-forward run: %w", err))
	}
	ffWall := time.Since(t1)

	host := doc.Workloads[0].Host
	exMk, ffMk := ex.Makespan, ff.Makespan
	errPct := math.Abs(ffMk-exMk) / exMk * 100
	exHit, ffHit := hitRatio(ex.Hosts[host]), hitRatio(ff.Hosts[host])
	rep := ff.Sim.FFwdReport()

	fmt.Fprintf(stdout, "ffwd oracle: %d iterations, %s per file, mode=%s\n",
		doc.Workloads[0].Iterations, units.FormatBytes(size), ex.Hosts[host].Mode)
	fmt.Fprintf(stdout, "  exact:        makespan %.6gs   hit ratio %.4f\n", exMk, exHit)
	fmt.Fprintf(stdout, "  fast-forward: makespan %.6gs   hit ratio %.4f   (simulated %d, skipped %d)\n",
		ffMk, ffHit, rep.IterationsSimulated, rep.IterationsSkipped)
	fmt.Fprintf(stdout, "  makespan error: %.4f%%   hit-ratio error: %.4f\n", errPct, math.Abs(ffHit-exHit))
	speedup := float64(exWall) / float64(ffWall)
	fmt.Fprintf(stdout, "  wall-clock: exact %.3fs, fast-forward %.3fs (speedup %.1fx)\n",
		exWall.Seconds(), ffWall.Seconds(), speedup)
	if errPct > oracleMaxErrPct {
		fmt.Fprintf(stdout, "oracle: FAIL (makespan error %.4f%% > %g%%)\n", errPct, oracleMaxErrPct)
		return 1
	}
	if !rep.Steady {
		fmt.Fprintln(stdout, "oracle: FAIL (no steady state detected)")
		return 1
	}
	fmt.Fprintln(stdout, "oracle: PASS")
	return 0
}

// writeSnapshot saves the run's final cache state to path (-snapshot-out;
// a no-op without it).
func writeSnapshot(res *scenario.Result, path string, stdout io.Writer) int {
	if path == "" {
		return 0
	}
	if err := res.WriteSnapshot(path); err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "cache snapshot written to %s\n", path)
	return 0
}

// printOps renders the op log as a per-op table of mean duration and total
// bytes.
func printOps(sim *engine.Simulation, stdout io.Writer) {
	t := &textplot.Table{Header: []string{"op", "mean duration (s)", "total bytes"}}
	for _, name := range sim.Log.Names() {
		ops := sim.Log.ByName(name)
		var d float64
		var bytes int64
		for _, o := range ops {
			d += o.Duration()
			bytes += o.Bytes
		}
		t.Add(name, fmt.Sprintf("%.2f", d/float64(len(ops))), units.FormatBytes(bytes))
	}
	t.Render(stdout)
}

// hitRatio computes the host cache's read hit ratio (0 when no reads ran).
func hitRatio(hr *engine.HostRuntime) float64 {
	st := hr.Model.Snapshot()
	if tot := st.ReadHitBytes + st.ReadMissBytes; tot > 0 {
		return float64(st.ReadHitBytes) / float64(tot)
	}
	return 0
}
