package exp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Exp4Result compares the Nighres workflow across stacks (Fig 6).
type Exp4Result struct {
	Ops       []string
	Durations map[Stack][]float64
	Errors    map[Stack][]metrics.ErrRow
	MeanErr   map[Stack]float64
}

// exp4Stacks orders the compared stacks; a cell's Coord.I indexes it.
var exp4Stacks = []Stack{StackReal, StackCacheless, StackCache}

// exp4Args parameterizes one Nighres cell.
type exp4Args struct {
	Stack Stack `json:"stack"`
}

// exp4Payload is one stack's op durations.
type exp4Payload struct {
	Durations []float64 `json:"durations"`
}

func init() {
	grid.RegisterCell("exp4", func(a exp4Args) (any, error) { return runExp4Cell(a) })
}

// Exp4Cells enumerates the Nighres experiment: one cell per stack.
func Exp4Cells(section string) []grid.Spec {
	specs := make([]grid.Spec, len(exp4Stacks))
	for i, st := range exp4Stacks {
		specs[i] = grid.NewSpec("exp4", grid.Coord{Section: section, I: i},
			fmt.Sprintf("exp4 nighres %s", st),
			costGB(workload.NighresInputSize, 4), exp4Args{Stack: st})
	}
	return specs
}

// MergeExp4 assembles the per-stack durations and computes the Fig 6 rows.
func MergeExp4(ps []grid.Payload) (*Exp4Result, error) {
	if err := wantCells(ps, len(exp4Stacks)); err != nil {
		return nil, fmt.Errorf("exp4: %w", err)
	}
	res := &Exp4Result{
		Ops:       workload.NighresOps(),
		Durations: map[Stack][]float64{},
		Errors:    map[Stack][]metrics.ErrRow{},
		MeanErr:   map[Stack]float64{},
	}
	pays, err := decodeAll[exp4Payload](ps)
	if err != nil {
		return nil, err
	}
	for i, pay := range pays {
		res.Durations[exp4Stacks[ps[i].Coord.I]] = pay.Durations
	}
	real := res.Durations[StackReal]
	for _, st := range []Stack{StackCacheless, StackCache} {
		rows := metrics.Errors(res.Ops, real, res.Durations[st])
		res.Errors[st] = rows
		res.MeanErr[st] = metrics.MeanErr(rows)
	}
	return res, nil
}

// runExp4Cell executes one stack's Nighres run.
func runExp4Cell(a exp4Args) (*exp4Payload, error) {
	var rig *LocalRig
	var err error
	switch a.Stack {
	case StackReal:
		rig, _, err = NewLocalReal(0)
	case StackCacheless:
		rig, err = NewLocalSim(engine.ModeCacheless)
	case StackCache:
		rig, err = NewLocalSim(engine.ModeWriteback)
	default:
		return nil, fmt.Errorf("exp4: unknown stack %q", a.Stack)
	}
	if err != nil {
		return nil, err
	}
	if err := createInput(rig.Sim, rig.Part, workload.NighresInput, workload.NighresInputSize); err != nil {
		return nil, err
	}
	rig.Sim.SpawnApp(rig.Host, 0, string(a.Stack), func(app *engine.App) error {
		return workload.RunNighres(&workload.EngineRunner{App: app, Part: rig.Part})
	})
	if err := rig.Sim.Run(); err != nil {
		return nil, fmt.Errorf("exp4 %s: %w", a.Stack, err)
	}
	return &exp4Payload{Durations: opDurations(rig.Sim.Log, workload.NighresOps())}, nil
}
