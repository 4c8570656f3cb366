package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// expectedJSON holds the committed expected outputs: the paper-quick hashes
// (equal to those of `experiments -quick -workers 1`) and, per simulator
// workload, the observations of the recorded seeds.
//
//go:embed expected.json
var expectedJSON []byte

type expectations struct {
	PaperQuick *paperExpect                  `json:"paper-quick"`
	Sim        map[string]map[string]*simObs `json:"sim"`
}

type paperExpect struct {
	paperObs
	CacheErrPct float64 `json:"cache_err_pct"`
}

func loadExpectations(b []byte) (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected values: %w", err)
	}
	return &e, nil
}

// seed returns the recorded observation for a workload and seed, or nil.
func (e *expectations) seed(workload string, seed int64) *simObs {
	return e.Sim[workload][strconv.FormatInt(seed, 10)]
}

// simImpl runs a simulator workload on the inputs generated for one seed.
type simImpl struct {
	w    *simWorkload
	seed int64
	in   []Instance
	want *simObs
}

func (s *simImpl) errUnits() int { return 1 }

func (s *simImpl) run(tr *tracer) (*sample, error) {
	r, err := s.w.runSim(s.seed, tr)
	if err != nil {
		return nil, err
	}
	o := r.obs
	layer := map[string]float64{
		"engine.build_s":       r.build.Seconds(),
		"engine.run_s":         r.exec.Seconds(),
		"engine.makespan_s":    o.MakespanS,
		"core.flushed_gb":      float64(o.FlushedBytes) / 1e9,
		"core.throttled_sim_s": o.ThrottledS,
	}
	if read := o.ReadHitBytes + o.ReadMissBytes; read > 0 {
		layer["core.read_hit_ratio"] = float64(o.ReadHitBytes) / float64(read)
	}
	return &sample{setup: r.setup, units: 1, obs: o, layer: layer}, nil
}

func (s *simImpl) setupOnly() (time.Duration, error) { return s.w.setupOnly(s.seed) }

// verify compares with the recorded observation when this seed has one,
// and always checks what the generated inputs imply: nine logged ops per
// pipeline, every byte read counted as a hit or a miss by a core model,
// no more flushed than written, and no pipeline finishing before its start
// offset plus its compute time.
func (s *simImpl) verify(smp *sample) (int, []string) {
	o := smp.obs.(simObs)
	var notes []string
	if s.want != nil && *s.want != o {
		notes = append(notes, fmt.Sprintf("seed %d: got %+v, want %+v", s.seed, o, *s.want))
	}
	if want := 9 * len(s.in); o.Ops != want {
		notes = append(notes, fmt.Sprintf("%d ops logged, want %d", o.Ops, want))
	}
	var bytes int64
	var lower float64
	for _, in := range s.in {
		bytes += 3 * in.Size
		if t := in.Offset + 3*workload.SyntheticCPU(in.Size); t > lower {
			lower = t
		}
	}
	if read := o.ReadHitBytes + o.ReadMissBytes; read != 0 && read != bytes {
		notes = append(notes, fmt.Sprintf("core counted %d bytes read, pipelines read %d", read, bytes))
	}
	if o.FlushedBytes > bytes {
		notes = append(notes, fmt.Sprintf("flushed %d bytes, more than the %d written", o.FlushedBytes, bytes))
	}
	if o.MakespanS < lower {
		notes = append(notes, fmt.Sprintf("makespan %g s below the %g s lower bound", o.MakespanS, lower))
	}
	if len(notes) > 0 {
		return 1, notes
	}
	return 0, nil
}

// paperImpl runs the quick paper grid.
type paperImpl struct {
	outDir string
	want   *paperExpect
	cells  int
}

func (p *paperImpl) errUnits() int {
	if p.cells == 0 {
		p.cells = len(setupPaper(p.outDir, nil, noSpan).specs)
	}
	return p.cells
}

func (p *paperImpl) run(tr *tracer) (*sample, error) {
	r, err := runPaper(p.outDir, tr)
	if err != nil {
		return nil, err
	}
	p.cells = r.cells
	st := r.stats
	layer := map[string]float64{
		"exp.real_s":        r.cellSecs["real"],
		"exp.sim_s":         r.cellSecs["sim"],
		"exp.merge_s":       r.merge.Seconds(),
		"exp.cache_err_pct": r.cacheErr,
		"grid.busy_s":       st.Busy(),
		"grid.idle_s":       float64(st.Workers())*st.WallSeconds - st.Busy(),
		"grid.max_cell_s":   r.maxCell,
		"grid.cells":        float64(st.Cells),
	}
	for _, f := range []string{"exp1", "exp2", "exp3", "exp4", "fig8", "ablations"} {
		layer["exp."+f+"_s"] = r.cellSecs[f]
	}
	return &sample{setup: r.setup, units: r.cells, obs: r.obs, aux: r, layer: layer}, nil
}

func (p *paperImpl) setupOnly() (time.Duration, error) {
	start := time.Now()
	setupPaper(p.outDir, nil, noSpan)
	return time.Since(start), nil
}

// verify fails every cell of a section that failed, did not render, or
// whose stdout block or CSVs differ from the expected hashes. A stdout
// mismatch no section explains, or a changed cache error, fails every cell.
func (p *paperImpl) verify(smp *sample) (int, []string) {
	o := smp.obs.(paperObs)
	r := smp.aux.(paperRun)
	var notes []string
	bad := map[string]bool{}
	for sec, n := range r.failedCells {
		bad[sec] = true
		notes = append(notes, fmt.Sprintf("section %s: %d cells failed or did not merge", sec, n))
	}
	if p.want == nil {
		return smp.units, append(notes, "no expected paper-quick hashes recorded")
	}
	for sec := range r.sectionSize {
		if !bad[sec] && o.Sections[sec] != p.want.Sections[sec] {
			bad[sec] = true
			notes = append(notes, fmt.Sprintf("section %s: stdout hash %s, want %s", sec, o.Sections[sec], p.want.Sections[sec]))
		}
	}
	for name, h := range p.want.CSVs {
		if o.CSVs[name] != h {
			bad[csvSection(name)] = true
			notes = append(notes, fmt.Sprintf("%s: hash %s, want %s", name, o.CSVs[name], h))
		}
	}
	failed := 0
	for sec := range bad {
		failed += r.sectionSize[sec]
	}
	if o.Stdout != p.want.Stdout {
		notes = append(notes, fmt.Sprintf("stdout hash %s, want %s", o.Stdout, p.want.Stdout))
		if len(bad) == 0 {
			failed = smp.units
		}
	}
	if r.cacheErr != p.want.CacheErrPct {
		notes = append(notes, fmt.Sprintf("cache_err_pct %g, want %g", r.cacheErr, p.want.CacheErrPct))
		failed = smp.units
	}
	sort.Strings(notes)
	return failed, notes
}

// csvSection names the section that writes a CSV.
func csvSection(name string) string {
	for _, p := range []struct{ prefix, sec string }{
		{"exp1_20gb_", "exp1-20gb"}, {"exp1_100gb_", "exp1-100gb"},
		{"exp2_", "exp2"}, {"exp3_", "exp3"}, {"fig8_", "fig8"},
	} {
		if strings.HasPrefix(name, p.prefix) {
			return p.sec
		}
	}
	return ""
}

// record runs the workload once and stores what it observed as the
// expected values for its seed (or, for paper-quick, its hashes).
func record(w impl, o options) error {
	s := measure(w, nil)
	if s.obs == nil {
		return fmt.Errorf("run failed: %v", s.notes)
	}
	e := &expectations{}
	if b, err := os.ReadFile(o.record); err == nil {
		if e, err = loadExpectations(b); err != nil {
			return err
		}
	}
	switch obs := s.obs.(type) {
	case paperObs:
		e.PaperQuick = &paperExpect{paperObs: obs, CacheErrPct: s.aux.(paperRun).cacheErr}
	case simObs:
		if e.Sim == nil {
			e.Sim = map[string]map[string]*simObs{}
		}
		if e.Sim[o.workload] == nil {
			e.Sim[o.workload] = map[string]*simObs{}
		}
		e.Sim[o.workload][strconv.FormatInt(o.seed, 10)] = &obs
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.record, append(b, '\n'), 0o644)
}
