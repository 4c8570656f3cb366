package engine

import (
	"strings"
	"testing"

	"repro/internal/grid"
)

type panicCellArgs struct {
	Panic bool `json:"panic"`
}

func init() {
	// One application reads f1 (parking on the substrate, so the rest of its
	// body runs after its process coroutine is resumed) and then, if asked,
	// panics.
	grid.RegisterCell("engine-test-app", func(a panicCellArgs) (any, error) {
		r, err := buildRig(ModeWriteback)
		if err != nil {
			return nil, err
		}
		r.sim.SpawnApp(r.hr, 0, "app", func(app *App) error {
			if err := app.ReadFile("f1", "read"); err != nil {
				return err
			}
			if a.Panic {
				panic("app exploded")
			}
			return nil
		})
		if err := r.sim.Run(); err != nil {
			return nil, err
		}
		return r.sim.Makespan(), nil
	})
}

// TestAppPanicFailsOnlyItsCell: a panicking application body is re-raised on
// the goroutine that runs the simulation, so grid.RunSpec's recover turns it
// into that cell's error instead of crashing the process, and the next cell
// runs normally.
func TestAppPanicFailsOnlyItsCell(t *testing.T) {
	bad := grid.RunSpec(grid.NewSpec("engine-test-app", grid.Coord{Section: "t", I: 0}, "bad", 1, panicCellArgs{Panic: true}))
	if !strings.Contains(bad.Err, "panic: app exploded") {
		t.Fatalf("panicking cell: Err = %q, want the app's panic", bad.Err)
	}
	good := grid.RunSpec(grid.NewSpec("engine-test-app", grid.Coord{Section: "t", I: 1}, "good", 1, panicCellArgs{}))
	if good.Err != "" || len(good.Payload) == 0 {
		t.Fatalf("cell after the panic: Err = %q, payload %q", good.Err, good.Payload)
	}
}
