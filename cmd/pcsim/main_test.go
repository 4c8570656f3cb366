package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestPcsimWorkflowFile(t *testing.T) {
	var b strings.Builder
	code := Main([]string{
		"-platform", "../../testdata/cluster.json",
		"-workflow", "../../testdata/nighres.json",
	}, &b)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	out := b.String()
	for _, want := range []string{"workflow nighres", "skullstrip", "cortical", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
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
