package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// runMain runs Main and returns its exit code, stdout and stderr.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	var out strings.Builder
	code = Main(args, &out)
	os.Stderr = saved
	w.Close()
	errText, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), string(errText)
}

// field returns the n-th whitespace-separated field of the first output
// line that starts with prefix.
func field(t *testing.T, out, prefix string, n int) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, prefix) && len(f) > n {
			return f[n]
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return ""
}

func TestPcsimBasicRun(t *testing.T) {
	var b strings.Builder
	code := Main([]string{"-size", "1GB", "-ram", "8GiB", "-mode", "writeback"}, &b)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	out := b.String()
	for _, want := range []string{"Read 1", "Write 3", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPcsimModes(t *testing.T) {
	for _, mode := range []string{"cacheless", "writeback", "writethrough", "directio"} {
		var b strings.Builder
		if code := Main([]string{"-size", "500MB", "-ram", "4GiB", "-mode", mode}, &b); code != 0 {
			t.Fatalf("mode %s: exit %d", mode, code)
		}
	}
}

func TestPcsimInstances(t *testing.T) {
	var b strings.Builder
	if code := Main([]string{"-size", "200MB", "-ram", "8GiB", "-instances", "4"}, &b); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(b.String(), "4 instance(s)") {
		t.Fatalf("output: %s", b.String())
	}
}

func TestPcsimCSVOutput(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "mem.csv")
	var b strings.Builder
	if code := Main([]string{"-size", "500MB", "-ram", "4GiB", "-csv", csv}, &b); code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,used,cache,dirty,anon") {
		t.Fatalf("csv = %q", string(data[:40]))
	}
}

func TestPcsimPlatformFile(t *testing.T) {
	var b strings.Builder
	code := Main([]string{"-platform", "../../testdata/cluster.json", "-size", "1GB"}, &b)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(b.String(), "node0") || !strings.Contains(b.String(), "Read 1") {
		t.Fatalf("output: %s", b.String())
	}
}

// TestPcsimWorkflowFile pins the workflow report: one row per task of the
// nighres DAG, in start order, and the workflow's own makespan.
func TestPcsimWorkflowFile(t *testing.T) {
	var b strings.Builder
	code := Main([]string{
		"-platform", "../../testdata/cluster.json",
		"-workflow", "../../testdata/nighres.json",
	}, &b)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	const want = `pcsim: workflow nighres on platform ../../testdata/cluster.json (host node0, mode writeback)
task        start (s)  end (s)
----------  ---------  -------
skullstrip       0.00   137.72
cortical       137.72   410.09
tissue         137.72   752.28
region         752.28   828.80
makespan: 828.8s
`
	if b.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestPcsimWorkflowRequiresPlatform(t *testing.T) {
	var b strings.Builder
	if code := Main([]string{"-workflow", "../../testdata/nighres.json"}, &b); code == 0 {
		t.Fatal("workflow without platform accepted")
	}
}

func TestPcsimMissingFiles(t *testing.T) {
	var b strings.Builder
	if code := Main([]string{"-platform", "/nonexistent.json"}, &b); code == 0 {
		t.Fatal("missing platform file accepted")
	}
	if code := Main([]string{"-platform", "../../testdata/cluster.json", "-workflow", "/nope.json"}, &b); code == 0 {
		t.Fatal("missing workflow file accepted")
	}
}

func TestPcsimBadFlags(t *testing.T) {
	cases := [][]string{
		{"-size", "garbage"},
		{"-mode", "nope"},
		{"-ram", "x"},
		{"-chunk", "-3"},
	}
	for _, args := range cases {
		var b strings.Builder
		if code := Main(args, &b); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestPcsimWritebackFlags(t *testing.T) {
	// Every registered writeback policy runs the basic pipeline, with and
	// without background writeback; unknown names and bad ratios fail fast.
	for _, wb := range []string{"list-order", "oldest-first", "file-rr", "proportional"} {
		var b strings.Builder
		args := []string{"-size", "500MB", "-ram", "4GiB", "-writeback", wb, "-dirty-background", "0.1"}
		if code := Main(args, &b); code != 0 {
			t.Fatalf("writeback %s: exit %d", wb, code)
		}
		if !strings.Contains(b.String(), "makespan") {
			t.Fatalf("writeback %s: output %s", wb, b.String())
		}
	}
	for _, args := range [][]string{
		{"-writeback", "elevator"},
		{"-size", "500MB", "-ram", "4GiB", "-dirty-background", "0.5"}, // ≥ dirty-ratio
	} {
		var b strings.Builder
		if code := Main(args, &b); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestPcsimProfileFlags: -cpuprofile and -memprofile write non-empty
// profiles and leave stdout byte-identical; an unwritable profile path is
// a config error.
func TestPcsimProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-size", "1GB", "-ram", "4GiB", "-instances", "2"}
	var off, on strings.Builder
	if code := Main(args, &off); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if code := Main(append(args, "-cpuprofile", cpu, "-memprofile", mem), &on); code != 0 {
		t.Fatalf("exit %d with profiles", code)
	}
	if off.String() != on.String() {
		t.Errorf("stdout differs with profiles on:\n%s\nvs\n%s", off.String(), on.String())
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(path), err)
		}
	}
	var b strings.Builder
	if code := Main(append(args, "-memprofile", filepath.Join(dir, "missing", "mem.pprof")), &b); code != 2 || b.Len() != 0 {
		t.Errorf("unwritable -memprofile: exit %d, stdout %q; want exit 2 and no output", code, b.String())
	}
}

// TestPcsimCPUZero: -cpu 0 injects no compute time, where the default is
// the Table I fit.
func TestPcsimCPUZero(t *testing.T) {
	args := []string{"-size", "500MB", "-ram", "4GiB"}
	_, zero, _ := runMain(t, append(args, "-cpu", "0")...)
	_, fit, _ := runMain(t, args...)
	if got := field(t, zero, "Compute 1", 2); got != "0.00" {
		t.Errorf("-cpu 0: Compute 1 mean duration %s, want 0.00\n%s", got, zero)
	}
	if got := field(t, fit, "Compute 1", 2); got == "0.00" {
		t.Errorf("default -cpu: Compute 1 mean duration 0.00, want the Table I fit\n%s", fit)
	}
}

// TestPcsimDirtyRatioZero: -dirty-ratio 0 is a flag error, although a
// document's dirtyRatio 0 means "no override".
func TestPcsimDirtyRatioZero(t *testing.T) {
	code, out, errText := runMain(t, "-size", "500MB", "-ram", "4GiB", "-dirty-ratio", "0")
	if code != 2 || out != "" || !strings.Contains(errText, "DirtyRatio") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming DirtyRatio", code, out, errText)
	}
}

// TestPcsimCachelessSnapshotOut: a cacheless run prints its report, then
// fails: it has no cache state to save.
func TestPcsimCachelessSnapshotOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	code, out, errText := runMain(t, "-size", "500MB", "-ram", "4GiB", "-mode", "cacheless", "-snapshot-out", path)
	if code != 1 || !strings.Contains(errText, "no state to snapshot") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and \"no state to snapshot\"", code, errText)
	}
	if !strings.Contains(out, "makespan:") {
		t.Errorf("report missing:\n%s", out)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("snapshot file written anyway")
	}
}

// TestPcsimSnapshotInMatchesWarmup: a -snapshot-out file restored by
// -snapshot-in and by a scenario's warmup snapshotFile gives the same run.
func TestPcsimSnapshotInMatchesWarmup(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "warm.snap.json")
	args := []string{"-size", "1GB", "-ram", "4GiB"}
	if code, out, errText := runMain(t, append(args, "-snapshot-out", snap)...); code != 0 {
		t.Fatalf("snapshot-out: exit %d\n%s%s", code, out, errText)
	}
	_, cold, _ := runMain(t, args...)
	code, warm, errText := runMain(t, append(args, "-snapshot-in", snap)...)
	if code != 0 {
		t.Fatalf("snapshot-in: exit %d\n%s%s", code, warm, errText)
	}
	flagMk := field(t, warm, "makespan:", 1)
	if flagMk == field(t, cold, "makespan:", 1) {
		t.Fatalf("restored run matches the cold run (%s): nothing was restored", flagMk)
	}

	// The same platform and workload as a scenario, warm-started from the
	// file (resolved relative to the scenario).
	const doc = `{
	  "name": "warm",
	  "platform": {"hosts": [{"name": "node0", "cores": 32, "gflops": 1, "ram": "4GiB",
	    "memReadMBps": 4812, "memWriteMBps": 4812,
	    "disks": [{"name": "node0.disk", "readMBps": 465, "writeMBps": 465,
	               "capacity": "101073741824", "partition": "scratch"}]}]},
	  "warmup": {"snapshotFile": "warm.snap.json"},
	  "workloads": [{"name": "app", "host": "node0", "kind": "synthetic",
	                 "partition": "scratch", "size": "1GB"}]
	}`
	path := filepath.Join(dir, "warm.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(d, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := units.FormatSeconds(res.Makespan); got != flagMk {
		t.Fatalf("scenario warmup makespan %s, -snapshot-in makespan %s", got, flagMk)
	}
}

// TestPcsimScenarioSnapshotOut: -snapshot-out also saves a scenario run.
func TestPcsimScenarioSnapshotOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	code, out, errText := runMain(t, "-scenario", "../../testdata/scenarios/baseline.json", "-snapshot-out", path)
	if code != 0 || !strings.Contains(out, "cache snapshot written to") {
		t.Fatalf("exit %d\n%s%s", code, out, errText)
	}
	f, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Hosts) == 0 || len(f.Files) == 0 {
		t.Fatalf("snapshot holds %d hosts and %d files", len(f.Hosts), len(f.Files))
	}
}

// TestPcsimFFwdOracle: the oracle's exact and fast-forwarded runs agree.
func TestPcsimFFwdOracle(t *testing.T) {
	code, out, errText := runMain(t, "-iterations", "60", "-size", "1GB", "-ram", "8GiB", "-ffwd-oracle")
	if code != 0 || !strings.Contains(out, "(simulated 4, skipped 56)") || !strings.Contains(out, "oracle: PASS") {
		t.Fatalf("exit %d\n%s%s", code, out, errText)
	}
}
