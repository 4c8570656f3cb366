package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end and checks for
// its key output line, so the documented entry points cannot rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take a few seconds each")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "page cache:"},
		{"concurrent", "cacheless baseline"},
		{"nfsmount", "server cache now holds"},
		{"nighres", "page-cache model vs cacheless baseline"},
		{"dagpipeline", "cacheless overestimates the workflow"},
		{"cgroups", "cgroup usage"},
		{"burstbuffer", "burst buffer"},
		{"policies", "policy comparison"},
		{"writeback", "writeback comparison"},
		{"fastforward", "fast-forward vs exact"},
		{"chaos", "the restart cost"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("example %s output missing %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}
