package workflow

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/storage"
)

// TaskTiming records one executed task.
type TaskTiming struct {
	Name       string
	Start, End float64
}

// RunReport summarizes a workflow execution. Spawn returns it empty; the
// task processes fill it in as they run.
type RunReport struct {
	Name     string // the workflow's name
	Timings  map[string]TaskTiming
	Makespan float64

	order []string                      // task names in workflow order
	done  map[string]*des.Future[error] // each task's outcome
}

// Err returns the first failed task's error, in workflow task order (nil
// when every finished task succeeded).
func (r *RunReport) Err() error {
	for _, name := range r.order {
		if err, _ := r.done[name].Peek(); err != nil {
			return err
		}
	}
	return nil
}

// OrderedTimings returns the timings sorted by start time (ties by name).
func (r *RunReport) OrderedTimings() []TaskTiming {
	out := make([]TaskTiming, 0, len(r.Timings))
	for _, t := range r.Timings {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Spawn starts the workflow on one engine host: every task becomes an
// application process that waits for its dependencies, reads its inputs
// (charging anonymous memory), computes on one core, writes its outputs to
// part, and releases its memory — the task semantics of the paper's
// applications (§III.D). Independent tasks run concurrently, bounded by the
// host's cores for compute and by fluid sharing for I/O.
//
// Source files must already exist on storage (see SourceSizes). The
// returned report fills in as sim runs; its Err reports task failures.
func Spawn(sim *engine.Simulation, host *engine.HostRuntime, part *storage.Partition, w *Workflow) (*RunReport, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	sources, err := w.SourceFiles()
	if err != nil {
		return nil, err
	}
	for _, f := range sources {
		p, err := sim.NS.Locate(f)
		if err != nil {
			return nil, fmt.Errorf("workflow %s: source file %s not on storage: %w", w.Name, f, err)
		}
		if _, ok := p.Lookup(f); !ok {
			return nil, fmt.Errorf("workflow %s: source file %s missing", w.Name, f)
		}
	}
	deps, err := w.deps()
	if err != nil {
		return nil, err
	}
	report := &RunReport{
		Name:    w.Name,
		Timings: make(map[string]TaskTiming, len(w.order)),
		order:   w.order,
		done:    make(map[string]*des.Future[error], len(w.order)),
	}
	done := report.done
	for _, name := range w.order {
		done[name] = des.NewFuture[error](sim.K)
	}
	for i, name := range w.order {
		name := name
		t := w.tasks[name]
		sim.SpawnApp(host, i, "wf:"+name, func(a *engine.App) error {
			// Wait for dependencies; abort on upstream failure.
			for _, d := range deps[name] {
				if err := done[d].Get(a.Proc()); err != nil {
					failure := fmt.Errorf("workflow %s: task %s: dependency %s failed: %w", w.Name, name, d, err)
					done[name].Set(failure)
					return nil // reported through the task future
				}
			}
			start := a.Now()
			err := runTask(a, part, t)
			report.Timings[name] = TaskTiming{Name: name, Start: start, End: a.Now()}
			if a.Now() > report.Makespan {
				report.Makespan = a.Now()
			}
			if err != nil {
				done[name].Set(fmt.Errorf("workflow %s: task %s: %w", w.Name, name, err))
				return nil
			}
			done[name].Set(nil)
			return nil
		})
	}
	return report, nil
}

// Run spawns the workflow (see Spawn), drives sim.Run, and returns the
// per-task timings with the first task failure, if any.
func Run(sim *engine.Simulation, host *engine.HostRuntime, part *storage.Partition, w *Workflow) (*RunReport, error) {
	report, err := Spawn(sim, host, part, w)
	if err != nil {
		return nil, err
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return report, report.Err()
}

func runTask(a *engine.App, part *storage.Partition, t *Task) error {
	for _, in := range t.Inputs {
		label := fmt.Sprintf("%s/read %s", t.Name, in.Name)
		if err := a.ReadFileN(in.Name, in.Bytes, label); err != nil {
			return err
		}
	}
	if t.CPUSeconds > 0 {
		a.Compute(t.CPUSeconds, t.Name+"/compute")
	}
	for _, o := range t.Outputs {
		label := fmt.Sprintf("%s/write %s", t.Name, o.Name)
		if err := a.WriteFile(o.Name, o.Size, part, label); err != nil {
			return err
		}
	}
	a.ReleaseTaskMemory()
	return nil
}
