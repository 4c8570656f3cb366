package workflow

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/storage"
)

func chain(t *testing.T) *Workflow {
	t.Helper()
	w := New("chain")
	w.MustAdd(Task{Name: "t1", CPUSeconds: 1,
		Inputs:  []FileRef{{Name: "in", Bytes: -1}},
		Outputs: []OutFile{{Name: "mid", Size: 100}}})
	w.MustAdd(Task{Name: "t2", CPUSeconds: 1,
		Inputs:  []FileRef{{Name: "mid", Bytes: -1}},
		Outputs: []OutFile{{Name: "out", Size: 100}}})
	return w
}

func TestAddValidation(t *testing.T) {
	w := New("w")
	if err := w.Add(Task{Name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.Add(Task{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Task{Name: "a"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := w.Add(Task{Name: "b", CPUSeconds: -1}); err == nil {
		t.Fatal("negative CPU accepted")
	}
	if err := w.Add(Task{Name: "c", Outputs: []OutFile{{Name: "f", Size: -1}}}); err == nil {
		t.Fatal("negative output accepted")
	}
}

func TestTopoOrderChain(t *testing.T) {
	w := chain(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "t1" || order[1] != "t2" {
		t.Fatalf("order = %v", order)
	}
}

func TestCycleDetection(t *testing.T) {
	w := New("cyclic")
	w.MustAdd(Task{Name: "a", Inputs: []FileRef{{Name: "fb", Bytes: -1}}, Outputs: []OutFile{{Name: "fa"}}})
	w.MustAdd(Task{Name: "b", Inputs: []FileRef{{Name: "fa", Bytes: -1}}, Outputs: []OutFile{{Name: "fb"}}})
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateProducerRejected(t *testing.T) {
	w := New("dup")
	w.MustAdd(Task{Name: "a", Outputs: []OutFile{{Name: "f", Size: 1}}})
	w.MustAdd(Task{Name: "b", Outputs: []OutFile{{Name: "f", Size: 1}}})
	if err := w.Validate(); err == nil {
		t.Fatal("duplicate producer accepted")
	}
}

func TestUnknownControlDepRejected(t *testing.T) {
	w := New("ctl")
	w.MustAdd(Task{Name: "a", After: []string{"ghost"}})
	if err := w.Validate(); err == nil {
		t.Fatal("unknown dep accepted")
	}
}

func TestEmptyWorkflowInvalid(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("empty workflow valid")
	}
}

func TestSourceFiles(t *testing.T) {
	w := chain(t)
	src, err := w.SourceFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(src) != 1 || src[0] != "in" {
		t.Fatalf("sources = %v", src)
	}
}

// TestSourceSizes: a source is created at the largest byte count any task
// reads from it; one that only whole-file reads name has no size.
func TestSourceSizes(t *testing.T) {
	w := New("fan")
	w.MustAdd(Task{Name: "a", Inputs: []FileRef{{Name: "in", Bytes: 300}}})
	w.MustAdd(Task{Name: "b", Inputs: []FileRef{{Name: "in", Bytes: 700}, {Name: "aux", Bytes: 5}}})
	got, err := w.SourceSizes()
	if err != nil {
		t.Fatal(err)
	}
	if want := []OutFile{{Name: "aux", Size: 5}, {Name: "in", Size: 700}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sizes = %v, want %v", got, want)
	}
	if _, err := chain(t).SourceSizes(); err == nil || !strings.Contains(err.Error(), "source file in") {
		t.Fatalf("whole-file-only source: err = %v", err)
	}
}

func TestCriticalPathCPU(t *testing.T) {
	w := New("diamond")
	w.MustAdd(Task{Name: "src", CPUSeconds: 1, Outputs: []OutFile{{Name: "f", Size: 1}}})
	w.MustAdd(Task{Name: "fast", CPUSeconds: 2, Inputs: []FileRef{{Name: "f", Bytes: -1}}, Outputs: []OutFile{{Name: "g1", Size: 1}}})
	w.MustAdd(Task{Name: "slow", CPUSeconds: 10, Inputs: []FileRef{{Name: "f", Bytes: -1}}, Outputs: []OutFile{{Name: "g2", Size: 1}}})
	w.MustAdd(Task{Name: "join", CPUSeconds: 1,
		Inputs: []FileRef{{Name: "g1", Bytes: -1}, {Name: "g2", Bytes: -1}}})
	cp, err := w.CriticalPathCPU()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 12 { // src + slow + join
		t.Fatalf("critical path = %v, want 12", cp)
	}
}

// engineRig builds a small host for execution tests: disk 100 B/s,
// memory 1000 B/s, 4 cores, RAM 100 kB.
func engineRig(t *testing.T) (*engine.Simulation, *engine.HostRuntime, *storage.Partition) {
	t.Helper()
	sim := engine.NewSimulation()
	host, err := sim.AddHost(platform.HostSpec{
		Name: "h", Cores: 4, FlopRate: 1e9, MemoryCap: 100000,
		Memory: platform.DeviceSpec{Name: "h.mem", ReadBW: 1000, WriteBW: 1000},
	}, engine.ModeWriteback, core.DefaultConfig(100000), 100)
	if err != nil {
		t.Fatal(err)
	}
	part, err := host.AddDisk(platform.DeviceSpec{Name: "h.disk", ReadBW: 100, WriteBW: 100}, "scratch", 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return sim, host, part
}

func addSource(t *testing.T, sim *engine.Simulation, part *storage.Partition, name string, size int64) {
	t.Helper()
	if _, err := part.CreateSized(name, size); err != nil {
		t.Fatal(err)
	}
	if err := sim.NS.Place(name, part); err != nil {
		t.Fatal(err)
	}
}

func TestRunChainRespectsDependencies(t *testing.T) {
	sim, host, part := engineRig(t)
	addSource(t, sim, part, "in", 1000)
	w := chain(t)
	rep, err := Run(sim, host, part, w)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := rep.Timings["t1"], rep.Timings["t2"]
	if t2.Start < t1.End {
		t.Fatalf("t2 started at %v before t1 ended at %v", t2.Start, t1.End)
	}
	if rep.Makespan != t2.End {
		t.Fatalf("makespan %v != t2 end %v", rep.Makespan, t2.End)
	}
	ord := rep.OrderedTimings()
	if len(ord) != 2 || ord[0].Name != "t1" {
		t.Fatalf("ordered = %v", ord)
	}
}

func TestRunForkJoinParallelism(t *testing.T) {
	sim, host, part := engineRig(t)
	addSource(t, sim, part, "in", 100)
	w := New("forkjoin")
	w.MustAdd(Task{Name: "prep", CPUSeconds: 1,
		Inputs:  []FileRef{{Name: "in", Bytes: -1}},
		Outputs: []OutFile{{Name: "data", Size: 1000}}})
	for _, n := range []string{"b1", "b2", "b3"} {
		w.MustAdd(Task{Name: n, CPUSeconds: 10,
			Inputs:  []FileRef{{Name: "data", Bytes: -1}},
			Outputs: []OutFile{{Name: n + ".out", Size: 10}}})
	}
	w.MustAdd(Task{Name: "join", CPUSeconds: 1, Inputs: []FileRef{
		{Name: "b1.out", Bytes: -1}, {Name: "b2.out", Bytes: -1}, {Name: "b3.out", Bytes: -1}}})
	rep, err := Run(sim, host, part, w)
	if err != nil {
		t.Fatal(err)
	}
	// The three branches run concurrently (4 cores): their spans overlap.
	b1, b2 := rep.Timings["b1"], rep.Timings["b2"]
	if b2.Start >= b1.End {
		t.Fatalf("branches serialized: b1=%+v b2=%+v", b1, b2)
	}
	// Branch reads of "data" are warm cache hits (written just before):
	// each 1000 B read at memory speed ≈ 1 s, not 10 s.
	for _, n := range []string{"b1", "b2", "b3"} {
		ops := sim.Log.ByName(n + "/read data")
		if len(ops) != 1 {
			t.Fatalf("%s read ops = %d", n, len(ops))
		}
		if ops[0].Duration() > 4 {
			t.Fatalf("%s read took %v, want cache-hit speed", n, ops[0].Duration())
		}
	}
	// Makespan ≈ prep(1 + write) + branch(read + 10 + write) + join.
	if rep.Makespan > 30 {
		t.Fatalf("makespan = %v, branches likely serialized", rep.Makespan)
	}
}

func TestRunFailurePropagates(t *testing.T) {
	sim, host, part := engineRig(t)
	addSource(t, sim, part, "in", 100)
	w := New("failing")
	w.MustAdd(Task{Name: "bad", CPUSeconds: 1,
		Inputs: []FileRef{{Name: "in", Bytes: -1}},
		// Output exceeds the partition: the write must fail.
		Outputs: []OutFile{{Name: "huge", Size: 10_000_000}}})
	w.MustAdd(Task{Name: "downstream", CPUSeconds: 1,
		Inputs: []FileRef{{Name: "huge", Bytes: -1}}})
	_, err := Run(sim, host, part, w)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunMissingSourceFails(t *testing.T) {
	sim, host, part := engineRig(t)
	w := chain(t)
	if _, err := Run(sim, host, part, w); err == nil {
		t.Fatal("missing source accepted")
	}
}

func TestRunPartialInputRead(t *testing.T) {
	sim, host, part := engineRig(t)
	addSource(t, sim, part, "in", 1000)
	w := New("partial")
	w.MustAdd(Task{Name: "t", CPUSeconds: 0,
		Inputs: []FileRef{{Name: "in", Bytes: 300}}})
	if _, err := Run(sim, host, part, w); err != nil {
		t.Fatal(err)
	}
	ops := sim.Log.ByName("t/read in")
	if ops[0].Bytes != 300 {
		t.Fatalf("read %d bytes, want 300", ops[0].Bytes)
	}
	// 300 B at 100 B/s cold.
	if math.Abs(ops[0].Duration()-3) > 1e-6 {
		t.Fatalf("duration = %v", ops[0].Duration())
	}
}

func TestControlOnlyDependency(t *testing.T) {
	sim, host, part := engineRig(t)
	w := New("ctl")
	w.MustAdd(Task{Name: "first", CPUSeconds: 2})
	w.MustAdd(Task{Name: "second", CPUSeconds: 1, After: []string{"first"}})
	rep, err := Run(sim, host, part, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timings["second"].Start < rep.Timings["first"].End {
		t.Fatal("control dependency ignored")
	}
}
