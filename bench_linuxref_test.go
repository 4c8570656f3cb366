// BenchmarkLinuxref*: the real-execution proxy (internal/linuxref) on its
// hottest shape. Every figure's error is measured against this model, so
// the experiment grids spend most of their time in it.
//
// CI runs it with -benchtime=1x as a smoke test; run it with the default
// benchtime for real numbers.
package repro

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkLinuxrefExp1WriteHeavy100GB runs the Exp 1 synthetic pipeline
// at 100 GB on the real proxy (250 GiB node). The second and third writes
// overflow RAM while their output file is open, so every reclaim meets a
// long run of dirty and protected folios at the head of the inactive list:
// the path the resumable scan cursors exist for.
func BenchmarkLinuxrefExp1WriteHeavy100GB(b *testing.B) {
	const size = 100 * units.GB
	files := workload.SyntheticFiles(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rig, model, err := exp.NewLocalReal(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rig.Part.CreateSized(files[0], size); err != nil {
			b.Fatal(err)
		}
		if err := rig.Sim.NS.Place(files[0], rig.Part); err != nil {
			b.Fatal(err)
		}
		rig.Sim.SpawnApp(rig.Host, 0, "real", func(a *engine.App) error {
			return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: rig.Part}, workload.SyntheticSpec{
				Size: size, CPU: workload.SyntheticCPU(size), Files: files,
			})
		})
		if err := rig.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		if err := model.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rig.Sim.Log.Duration("write", -1), "write-s")
		}
	}
}
