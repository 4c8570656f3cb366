package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/textplot"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationRow reports one model variant's Exp 1 accuracy.
type AblationRow struct {
	Name    string
	MeanErr float64 // vs the standard real proxy (%)
	Note    string
}

// AblationResult collects the design-choice study.
type AblationResult struct {
	Size int64
	Rows []AblationRow
}

// ablationVariant is one simulator configuration of the design-choice study.
type ablationVariant struct {
	name, note string
	mem, disk  platform.DeviceSpec
	cfg        core.Config
	chunk      int64
}

// ablationVariants lists the studied design choices:
//
//   - symmetric averaged bandwidths (the paper's SimGrid 3.25 constraint)
//     vs measured asymmetric bandwidths (the paper's anticipated fix);
//   - eviction protection for open-for-write files (the kernel heuristic
//     the paper could not model) off vs on;
//   - chunk-size sensitivity;
//   - split vs shared disk channels.
//
// Cells reference variants by name, so the list is the lookup table both in
// the coordinator and in `-queue-worker` processes.
func ablationVariants() []ablationVariant {
	symMem, symDisk := platform.SimMemorySpec("node0.mem"), platform.SimLocalDiskSpec("node0.disk")
	asymMem, asymDisk := platform.RealMemorySpec("node0.mem"), platform.RealLocalDiskSpec("node0.disk")
	protCfg := coreDefault()
	protCfg.EvictExcludesOpenWrites = true
	sharedDisk := symDisk
	sharedDisk.Channels = platform.SharedChannel

	return []ablationVariant{
		{"paper default (symmetric bw)", "baseline configuration", symMem, symDisk, coreDefault(), ChunkSize},
		{"asymmetric bandwidths", "paper's anticipated SimGrid improvement", asymMem, asymDisk, coreDefault(), ChunkSize},
		{"evict-protects-open-writes", "kernel heuristic the paper couldn't model", symMem, symDisk, protCfg, ChunkSize},
		{"asymmetric + protection", "both fixes combined", asymMem, asymDisk, protCfg, ChunkSize},
		{"chunk 10 MB", "finer I/O granularity", symMem, symDisk, coreDefault(), 10 * units.MB},
		{"chunk 1 GB", "coarser I/O granularity", symMem, symDisk, coreDefault(), units.GB},
		{"shared disk channel", "reads and writes contend", symMem, sharedDisk, coreDefault(), ChunkSize},
	}
}

// ablationReference names the real-proxy reference cell.
const ablationReference = "real reference"

// ablationArgs parameterizes one ablation cell: the reference run or one
// named variant at the given size.
type ablationArgs struct {
	Size    int64  `json:"size"`
	Variant string `json:"variant"`
}

// ablationPayload is one run's op durations.
type ablationPayload struct {
	Durations []float64 `json:"durations"`
}

func init() {
	grid.RegisterCell("ablation", func(a ablationArgs) (any, error) { return runAblationCell(a) })
}

// AblationCells enumerates the study: the reference run at Coord.I 0,
// the variants after it in table order.
func AblationCells(section string, size int64) []grid.Spec {
	specs := []grid.Spec{grid.NewSpec("ablation", grid.Coord{Section: section, I: 0},
		"ablation "+ablationReference, costGB(size, 1),
		ablationArgs{Size: size, Variant: ablationReference})}
	for i, v := range ablationVariants() {
		specs = append(specs, grid.NewSpec("ablation", grid.Coord{Section: section, I: i + 1},
			"ablation "+v.name, costGB(size, 1),
			ablationArgs{Size: size, Variant: v.name}))
	}
	return specs
}

// MergeAblation scores every variant against the reference run.
func MergeAblation(size int64, ps []grid.Payload) (*AblationResult, error) {
	variants := ablationVariants()
	if err := wantCells(ps, len(variants)+1); err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	pays, err := decodeAll[ablationPayload](ps)
	if err != nil {
		return nil, err
	}
	ops := workload.SyntheticOps()
	real := pays[0].Durations
	res := &AblationResult{Size: size}
	for i, v := range variants {
		rows := metrics.Errors(ops, real, pays[i+1].Durations)
		res.Rows = append(res.Rows, AblationRow{Name: v.name, MeanErr: metrics.MeanErr(rows), Note: v.note})
	}
	return res, nil
}

// RunAblations quantifies the design choices listed in ablationVariants on the
// Exp 1 workload at the given size. Cells fan out over the default
// in-process pool.
func RunAblations(size int64) (*AblationResult, error) {
	ps, err := runGrid(AblationCells("ablations", size))
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	return MergeAblation(size, ps)
}

// runAblationCell executes the reference run or one named variant.
func runAblationCell(a ablationArgs) (*ablationPayload, error) {
	cpu := workload.SyntheticCPU(a.Size)
	files := workload.SyntheticFiles(0)
	ops := workload.SyntheticOps()
	if a.Variant == ablationReference {
		rig, _, err := NewLocalReal(0)
		if err != nil {
			return nil, err
		}
		durs, err := runSyntheticOn(rig, a.Size, cpu, files, ops)
		if err != nil {
			return nil, fmt.Errorf("ablation real: %w", err)
		}
		return &ablationPayload{Durations: durs}, nil
	}
	for _, v := range ablationVariants() {
		if v.name != a.Variant {
			continue
		}
		rig, err := newLocalCustom(engine.ModeWriteback, v.mem, v.disk, v.cfg, v.chunk)
		if err != nil {
			return nil, err
		}
		durs, err := runSyntheticOn(rig, a.Size, cpu, files, ops)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		return &ablationPayload{Durations: durs}, nil
	}
	return nil, fmt.Errorf("ablation: unknown variant %q", a.Variant)
}

// newLocalCustom builds a single-node simulator platform with explicit
// device specs, cache config and chunk size.
func newLocalCustom(mode engine.Mode, mem, disk platform.DeviceSpec, cfg core.Config, chunk int64) (*LocalRig, error) {
	sim := engine.NewSimulation()
	spec := platform.PaperHostSpec("node0", mem)
	hr, err := sim.AddHost(spec, mode, cfg, chunk)
	if err != nil {
		return nil, err
	}
	part, err := hr.AddDisk(disk, "scratch", DiskCap)
	if err != nil {
		return nil, err
	}
	return &LocalRig{Sim: sim, Host: hr, Part: part}, nil
}

// runSyntheticOn executes the synthetic app on a prepared rig and returns
// the op durations.
func runSyntheticOn(rig *LocalRig, size int64, cpu float64, files [4]string, ops []string) ([]float64, error) {
	if err := createInput(rig.Sim, rig.Part, files[0], size); err != nil {
		return nil, err
	}
	rig.Sim.SpawnApp(rig.Host, 0, "app", func(a *engine.App) error {
		return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: rig.Part}, workload.SyntheticSpec{
			Size: size, CPU: cpu, Files: files,
		})
	})
	if err := rig.Sim.Run(); err != nil {
		return nil, err
	}
	return opDurations(rig.Sim.Log, ops), nil
}

// Render prints the ablation table.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== Ablations (Exp 1 workload, %s): mean error vs real proxy ==\n", units.FormatBytes(r.Size))
	t := &textplot.Table{Header: []string{"variant", "mean err (%)", "note"}}
	for _, row := range r.Rows {
		t.Add(row.Name, fmt.Sprintf("%.1f", row.MeanErr), row.Note)
	}
	t.Render(w)
}
