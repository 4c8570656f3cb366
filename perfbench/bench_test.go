package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/units"
)

func TestGenerateIsDeterministic(t *testing.T) {
	for name, w := range simWorkloads {
		a, b := Generate(w.shape, 7), Generate(w.shape, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(a, Generate(w.shape, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
		var total int64
		for _, in := range a {
			total += in.Size
			lo := int64(float64(w.shape.MeanSize) * (1 - 2*w.shape.Spread))
			hi := int64(float64(w.shape.MeanSize) * (1 + 2*w.shape.Spread))
			if in.Size < lo || in.Size > hi || in.Size%w.shape.Quantum != 0 {
				t.Errorf("%s: size %d outside [%d, %d] or not a multiple of %d", name, in.Size, lo, hi, w.shape.Quantum)
			}
			if in.Offset < 0 || in.Offset >= w.shape.MaxOffset {
				t.Errorf("%s: offset %g outside [0, %g)", name, in.Offset, w.shape.MaxOffset)
			}
		}
		if want := int64(w.shape.Instances) * w.shape.MeanSize; total != want {
			t.Errorf("%s: generated %d bytes, want %d for every seed", name, total, want)
		}
	}
}

// small shrinks a workload so the test runs in a fraction of a second; the
// build function, chunk size and host stay the same.
func small(w *simWorkload) *simWorkload {
	s := *w
	s.shape.Instances = 4
	s.shape.MeanSize = 200 * units.MB
	return &s
}

// TestDecoratorsAreTransparent runs every simulator workload with and
// without the tracing decorators: the traced run must be the same program,
// with the same op log, makespan and core counters.
func TestDecoratorsAreTransparent(t *testing.T) {
	for name, w := range simWorkloads {
		w := small(w)
		plain, err := w.runSim(3, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := newTracer()
		traced, err := w.runSim(3, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if plain.obs != traced.obs {
			t.Errorf("%s: traced run differs:\n plain  %+v\n traced %+v", name, plain.obs, traced.obs)
		}
		// Each pipeline task reads, computes, writes (three logged ops) and
		// releases its memory: four Runner calls.
		if tr.runnerOps != 4*plain.obs.Ops/3 || tr.transfers == 0 || tr.readCalls == 0 || tr.writeCalls == 0 {
			t.Errorf("%s: tracer saw %d runner ops (log has %d), %d transfers, %d reads, %d writes",
				name, tr.runnerOps, plain.obs.Ops, tr.transfers, tr.readCalls, tr.writeCalls)
		}
		var self int64
		for _, d := range tr.self {
			self += int64(d)
		}
		if root := tr.spans[0]; root.kind != kindRun || self != int64(root.end) {
			t.Errorf("%s: self times sum to %d ns, want the traced span of %d ns", name, self, root.end)
		}
	}
}

// TestDecoratorsKeepTypeAssertions checks that a decorated model answers
// the engine's type assertions exactly as the model it wraps.
func TestDecoratorsKeepTypeAssertions(t *testing.T) {
	mgr, err := core.NewManager(core.DefaultConfig(units.GiB))
	if err != nil {
		t.Fatal(err)
	}
	coreModel, err := engine.NewCoreModel(mgr, units.MB, engine.ModeWriteback)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, m := range []engine.CacheModel{coreModel, engine.NewCachelessModel(units.MB)} {
		d := tr.wrapModel(m)
		_, innerMP := m.(engine.ManagerProvider)
		_, outerMP := d.(engine.ManagerProvider)
		_, innerSy := m.(engine.Syncer)
		_, outerSy := d.(engine.Syncer)
		if innerMP != outerMP || innerSy != outerSy {
			t.Errorf("%T: ManagerProvider %v->%v, Syncer %v->%v", m, innerMP, outerMP, innerSy, outerSy)
		}
		if mp, ok := d.(engine.ManagerProvider); ok && mp.Manager() != mgr {
			t.Errorf("decorated Manager() is not the wrapped manager")
		}
	}
}

// TestRecordedSeedsReproduce runs the simulator workloads at full size on
// the development seed and checks the committed expected values.
func TestRecordedSeedsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	want, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range simWorkloads {
		exp := want.seed(name, devSeed)
		if exp == nil {
			t.Errorf("%s: no expected values for the development seed %d", name, devSeed)
			continue
		}
		r, err := w.runSim(devSeed, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.obs != *exp {
			t.Errorf("%s: got %+v, want %+v", name, r.obs, *exp)
		}
		si := &simImpl{w: w, seed: devSeed, in: Generate(w.shape, devSeed), want: exp}
		if f, notes := si.verify(&sample{obs: r.obs}); f != 0 {
			t.Errorf("%s: invariants fail: %v", name, notes)
		}
	}
	if want.seed("cache-concurrent", heldOutSeed) == nil {
		t.Errorf("no expected values for the held-out seed %d", heldOutSeed)
	}
}

// TestAttributeProfile profiles a small traced run and checks the CPU it
// attributes adds up to what the profile holds and lands on repro modules.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	w := small(simWorkloads["nfs-cacheless"])
	for start, i := time.Now(), 0; time.Since(start) < time.Second; i++ {
		if _, err := w.runSim(int64(i), nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	cpu, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, repro float64
	for m, s := range cpu {
		total += s
		if m != "gc" && m != "runtime" && m != "bench" {
			repro += s
		}
	}
	if total == 0 || repro == 0 {
		t.Fatalf("attributed %g s in total, %g s to repro modules: %v", total, repro, cpu)
	}
	if cpu["linuxref"] != 0 || cpu["core"] > 0.05*total {
		t.Errorf("cacheless NFS run charged linuxref %g s and core %g s of %g s", cpu["linuxref"], cpu["core"], total)
	}
	for _, m := range []string{"repro/internal/core.(*List).Len", "repro/internal/fluid.(*System).Run", "main.run"} {
		if moduleOf(m) == "" {
			t.Errorf("moduleOf(%q) is empty", m)
		}
	}
	if moduleOf("runtime.mallocgc") != "" {
		t.Error("runtime frames must not map to a module")
	}
}
