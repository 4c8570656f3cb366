package exp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/pysim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Exp1Result holds one single-threaded run comparison (Figs 4a–4c for one
// input size).
type Exp1Result struct {
	Size int64
	Ops  []string
	// Durations[stack][i] is the duration of Ops[i] in seconds.
	Durations map[Stack][]float64
	// Errors[stack] are per-op absolute relative errors vs StackReal (%).
	Errors map[Stack][]metrics.ErrRow
	// MeanErr[stack] averages the per-op errors (the paper's headline).
	MeanErr map[Stack]float64
	// Mem[stack] is the memory profile (Fig 4b).
	Mem map[Stack]*trace.MemSeries
	// Snaps[stack] are the per-op cache contents (Fig 4c; real and cache).
	Snaps map[Stack]*trace.SnapshotLog
}

// exp1Stacks orders the four compared stacks; a cell's Coord.I indexes it.
var exp1Stacks = []Stack{StackReal, StackPysim, StackCacheless, StackCache}

// Exp1Stacks lists the compared stacks in cell order (callers emit one
// memory-profile CSV per stack).
func Exp1Stacks() []Stack { return append([]Stack(nil), exp1Stacks...) }

// exp1Args parameterizes one Exp 1 cell: one (size, stack) run.
type exp1Args struct {
	Size  int64 `json:"size"`
	Stack Stack `json:"stack"`
}

// exp1Payload is one stack's observables.
type exp1Payload struct {
	Durations []float64          `json:"durations"`
	Mem       *trace.MemSeries   `json:"mem,omitempty"`
	Snaps     *trace.SnapshotLog `json:"snaps,omitempty"`
}

func init() {
	grid.RegisterCell("exp1", func(a exp1Args) (any, error) { return runExp1Cell(a) })
}

// Exp1Cells enumerates Exp 1 at one size: one cell per stack.
func Exp1Cells(section string, size int64) []grid.Spec {
	specs := make([]grid.Spec, len(exp1Stacks))
	for i, st := range exp1Stacks {
		specs[i] = grid.NewSpec("exp1", grid.Coord{Section: section, I: i},
			fmt.Sprintf("exp1 %s %s", units.FormatBytes(size), st),
			costGB(size, 1), exp1Args{Size: size, Stack: st})
	}
	return specs
}

// MergeExp1 assembles the per-stack payloads (coordinate order) and computes
// the Fig 4a error rows exactly as the sequential runner did.
func MergeExp1(size int64, ps []grid.Payload) (*Exp1Result, error) {
	if err := wantCells(ps, len(exp1Stacks)); err != nil {
		return nil, fmt.Errorf("exp1: %w", err)
	}
	res := &Exp1Result{
		Size:      size,
		Ops:       workload.SyntheticOps(),
		Durations: map[Stack][]float64{},
		Errors:    map[Stack][]metrics.ErrRow{},
		MeanErr:   map[Stack]float64{},
		Mem:       map[Stack]*trace.MemSeries{},
		Snaps:     map[Stack]*trace.SnapshotLog{},
	}
	pays, err := decodeAll[exp1Payload](ps)
	if err != nil {
		return nil, err
	}
	for i, pay := range pays {
		st := exp1Stacks[ps[i].Coord.I]
		res.Durations[st] = pay.Durations
		res.Mem[st] = pay.Mem
		res.Snaps[st] = pay.Snaps
	}
	real := res.Durations[StackReal]
	for _, st := range []Stack{StackPysim, StackCacheless, StackCache} {
		rows := metrics.Errors(res.Ops, real, res.Durations[st])
		res.Errors[st] = rows
		res.MeanErr[st] = metrics.MeanErr(rows)
	}
	return res, nil
}

func ptrMode(m engine.Mode) *engine.Mode { return &m }

// runExp1Cell executes one (size, stack) cell.
func runExp1Cell(a exp1Args) (*exp1Payload, error) {
	cpu := workload.SyntheticCPU(a.Size)
	files := workload.SyntheticFiles(0)
	ops := workload.SyntheticOps()
	switch a.Stack {
	case StackPysim:
		return runExp1Pysim(a.Size, cpu, files, ops)
	case StackReal:
		return runExp1Engine(a.Stack, a.Size, cpu, files, ops, nil)
	case StackCacheless:
		return runExp1Engine(a.Stack, a.Size, cpu, files, ops, ptrMode(engine.ModeCacheless))
	case StackCache:
		return runExp1Engine(a.Stack, a.Size, cpu, files, ops, ptrMode(engine.ModeWriteback))
	}
	return nil, fmt.Errorf("exp1: unknown stack %q", a.Stack)
}

func runExp1Engine(st Stack, size int64, cpu float64, files [4]string, ops []string, mode *engine.Mode) (*exp1Payload, error) {
	var rig *LocalRig
	var err error
	if mode == nil {
		rig, _, err = NewLocalReal(0)
	} else {
		rig, err = NewLocalSim(*mode)
	}
	if err != nil {
		return nil, err
	}
	if err := createInput(rig.Sim, rig.Part, files[0], size); err != nil {
		return nil, err
	}
	rig.Host.EnableMemTrace(1)
	rig.Sim.SpawnApp(rig.Host, 0, string(st), func(a *engine.App) error {
		return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: rig.Part}, workload.SyntheticSpec{
			Size: size, CPU: cpu, Files: files, Snapshot: true,
		})
	})
	if err := rig.Sim.Run(); err != nil {
		return nil, fmt.Errorf("exp1 %s: %w", st, err)
	}
	return &exp1Payload{
		Durations: opDurations(rig.Sim.Log, ops),
		Mem:       rig.Host.MemTrace,
		Snaps:     rig.Host.Snaps,
	}, nil
}

func runExp1Pysim(size int64, cpu float64, files [4]string, ops []string) (*exp1Payload, error) {
	t3 := platform.TableIII()
	sim, err := pysim.New(pysim.Config{
		MemBW:  units.MBps(t3.SimMemMBps),
		DiskBW: units.MBps(t3.SimLocalMBps),
		Cache:  coreDefault(),
		Chunk:  ChunkSize,
	})
	if err != nil {
		return nil, err
	}
	sim.CreateFile(files[0], size)
	if err := workload.RunSynthetic(sim, workload.SyntheticSpec{
		Size: size, CPU: cpu, Files: files, Snapshot: true,
	}); err != nil {
		return nil, fmt.Errorf("exp1 pysim: %w", err)
	}
	return &exp1Payload{
		Durations: opDurations(sim.Log, ops),
		Mem:       sim.MemTrace,
		Snaps:     sim.Snaps,
	}, nil
}

// opDurations extracts op durations in the given order (one op per label).
func opDurations(log *trace.OpLog, ops []string) []float64 {
	out := make([]float64, len(ops))
	for i, name := range ops {
		recs := log.ByName(name)
		var d float64
		for _, o := range recs {
			d += o.Duration()
		}
		out[i] = d
	}
	return out
}
