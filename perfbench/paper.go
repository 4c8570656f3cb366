package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/textplot"
	"repro/internal/units"
	"repro/internal/workload"
)

// The paper-quick workload runs the report `experiments -quick` prints,
// through the same exp cell enumeration, grid.Run pool and exp.Emitter, and
// must reproduce its stdout and CSVs byte for byte. The section list below
// mirrors cmd/experiments with -quick and no selector (every experiment,
// tables, Fig 4b profiles and Fig 4c contents).

const paperWorkers = 2

var (
	paperLevels = []int{1, 4, 8, 16, 32}
	paperReps   = 2
	paperSizes  = []int{20, 100}
)

// paperObs is what one paper-quick run must reproduce: the SHA-256 of
// stdout, of each section's stdout block and of each CSV.
type paperObs struct {
	Stdout   string            `json:"stdout"`
	Sections map[string]string `json:"sections"`
	CSVs     map[string]string `json:"csvs"`
}

// paperRun is one timed paper-quick run and what the traced view needs.
type paperRun struct {
	setup       time.Duration
	obs         paperObs
	cells       int
	failedCells map[string]int // section -> failed cells (errors and failed merges)
	sectionSize map[string]int // section -> cells
	stats       metrics.GridStats
	cellSecs    map[string]float64 // by family and by stack ("real", "sim")
	maxCell     float64
	merge       time.Duration
	cacheErr    float64 // mean of the WRENCH-cache mean errors, as printed
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// paperRecorder wraps each section's merge so the benchmark can time merge,
// render and CSV writes and hash what each section emits.
type paperRecorder struct {
	tr       *tracer
	root     int32
	merge    time.Duration
	sections map[string]string
	csvs     map[string]string
	cacheErr []float64
}

func (rec *paperRecorder) wrap(s exp.Section) exp.Section {
	merge := s.Merge
	key := s.Key
	s.Merge = func(ps []grid.Payload) (*exp.Output, error) {
		start := time.Now()
		out, err := merge(ps)
		rec.addMerge(start)
		if err != nil {
			return nil, err
		}
		render := out.Render
		wrapped := &exp.Output{Render: func(w io.Writer) {
			start := time.Now()
			var b bytes.Buffer
			render(&b)
			rec.sections[key] = sha(b.Bytes())
			_, _ = w.Write(b.Bytes()) // a bytes.Buffer: cannot fail
			rec.addMerge(start)
		}}
		for _, c := range out.CSVs {
			c := c
			wrapped.CSVs = append(wrapped.CSVs, exp.CSV{Name: c.Name, Write: func(w io.Writer) error {
				start := time.Now()
				h := sha256.New()
				err := c.Write(io.MultiWriter(w, h))
				rec.csvs[c.Name] = hex.EncodeToString(h.Sum(nil))
				rec.addMerge(start)
				return err
			}})
		}
		return wrapped, nil
	}
	return s
}

func (rec *paperRecorder) addMerge(start time.Time) {
	now := time.Now()
	rec.merge += now.Sub(start)
	if rec.tr != nil {
		rec.tr.addSpan(kindMerge, rec.root, start, now)
	}
}

// printedMean reads back a mean error the way the report prints it.
func printedMean(v float64) float64 {
	x, _ := strconv.ParseFloat(fmt.Sprintf("%.0f", v), 64) // %.0f always parses
	return x
}

// paperSections builds the -quick report's sections in output order.
func paperSections(rec *paperRecorder) []exp.Section {
	var sections []exp.Section
	for _, gb := range paperSizes {
		gb := gb
		size := int64(gb) * units.GB
		key := fmt.Sprintf("exp1-%dgb", gb)
		sections = append(sections, exp.Section{
			Key:   key,
			Specs: exp.Exp1Cells(key, size),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeExp1(size, ps)
				if err != nil {
					return nil, err
				}
				rec.cacheErr = append(rec.cacheErr, printedMean(res.MeanErr[exp.StackCache]))
				out := &exp.Output{Render: func(w io.Writer) {
					res.Render(w)
					res.RenderMemProfiles(w)
					res.RenderCacheContents(w)
					fmt.Fprintln(w)
				}}
				for _, st := range exp.Exp1Stacks() {
					ms := res.Mem[st]
					if ms == nil {
						continue
					}
					out.CSVs = append(out.CSVs, exp.CSV{
						Name:  fmt.Sprintf("exp1_%dgb_mem_%s.csv", gb, st),
						Write: ms.WriteCSV,
					})
				}
				return out, nil
			},
		})
	}
	sections = append(sections,
		concurrentSection("exp2", false, "exp2_fig5.csv"),
		concurrentSection("exp3", true, "exp3_fig7.csv"),
		exp.Section{
			Key:   "exp4",
			Specs: exp.Exp4Cells("exp4"),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeExp4(ps)
				if err != nil {
					return nil, err
				}
				rec.cacheErr = append(rec.cacheErr, printedMean(res.MeanErr[exp.StackCache]))
				return &exp.Output{Render: thenBlank(res.Render)}, nil
			},
		},
		exp.Section{
			Key:   "fig8",
			Specs: exp.Fig8Cells("fig8", paperLevels),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeFig8(paperLevels, false, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{
					Render: thenBlank(res.Render),
					CSVs:   []exp.CSV{{Name: "fig8_simtime.csv", Write: res.WriteCSV}},
				}, nil
			},
		},
		exp.Section{
			Key:   "ablations",
			Specs: exp.AblationCells("ablations", 100*units.GB),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeAblation(100*units.GB, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{Render: thenBlank(res.Render)}, nil
			},
		},
	)
	for i := range sections {
		sections[i] = rec.wrap(sections[i])
	}
	return sections
}

func concurrentSection(key string, remote bool, csvName string) exp.Section {
	return exp.Section{
		Key:   key,
		Specs: exp.ConcurrentCells(key, remote, 3*units.GB, paperLevels, paperReps),
		Merge: func(ps []grid.Payload) (*exp.Output, error) {
			res, err := exp.MergeConcurrent(remote, paperLevels, paperReps, ps)
			if err != nil {
				return nil, err
			}
			return &exp.Output{
				Render: thenBlank(res.Render),
				CSVs:   []exp.CSV{{Name: csvName, Write: res.WriteCSV}},
			}, nil
		},
	}
}

func thenBlank(render func(io.Writer)) func(io.Writer) {
	return func(w io.Writer) {
		render(w)
		fmt.Fprintln(w)
	}
}

// printTables prints Tables I-III as cmd/experiments does.
func printTables(w io.Writer) {
	fmt.Fprintln(w, "== Table I: synthetic application parameters ==")
	t1 := &textplot.Table{Header: []string{"Input size", "CPU time (s)"}}
	for _, row := range workload.TableI {
		t1.Add(units.FormatBytes(row.Size), fmt.Sprintf("%.1f", row.CPU))
	}
	t1.Render(w)

	fmt.Fprintln(w, "\n== Table II: Nighres application parameters ==")
	t2 := &textplot.Table{Header: []string{"Workflow step", "Input (MB)", "Output (MB)", "CPU time (s)"}}
	for _, s := range workload.NighresSteps() {
		t2.Add(s.Name,
			fmt.Sprintf("%d", s.InputBytes/units.MB),
			fmt.Sprintf("%d", s.OutputSize/units.MB),
			fmt.Sprintf("%.0f", s.CPU))
	}
	t2.Render(w)

	fmt.Fprintln(w, "\n== Table III: bandwidths (MBps) ==")
	b := platform.TableIII()
	t3 := &textplot.Table{Header: []string{"Device", "Cluster (real)", "Simulators"}}
	t3.Add("Memory read", fmt.Sprintf("%.0f", b.MemReadMBps), fmt.Sprintf("%.0f", b.SimMemMBps))
	t3.Add("Memory write", fmt.Sprintf("%.0f", b.MemWriteMBps), fmt.Sprintf("%.0f", b.SimMemMBps))
	t3.Add("Local disk read", fmt.Sprintf("%.0f", b.LocalReadMBps), fmt.Sprintf("%.0f", b.SimLocalMBps))
	t3.Add("Local disk write", fmt.Sprintf("%.0f", b.LocalWriteMBps), fmt.Sprintf("%.0f", b.SimLocalMBps))
	t3.Add("Remote disk read", fmt.Sprintf("%.0f", b.RemoteReadMBps), fmt.Sprintf("%.0f", b.SimNFSbps))
	t3.Add("Remote disk write", fmt.Sprintf("%.0f", b.RemoteWriteMBps), fmt.Sprintf("%.0f", b.SimNFSbps))
	t3.Add("Network", fmt.Sprintf("%.0f", b.NetworkMBps), fmt.Sprintf("%.0f", b.NetworkMBps))
	t3.Render(w)
	fmt.Fprintln(w)
}

// cellStack tells real-proxy (linuxref) cells from simulator cells by their
// arguments.
func cellStack(s grid.Spec) string {
	var a struct {
		Stack   string `json:"stack"`
		Variant string `json:"variant"`
	}
	_ = json.Unmarshal(s.Args, &a) // every exp cell kind encodes a JSON object
	if a.Stack == string(exp.StackReal) || a.Variant == "real reference" {
		return "real"
	}
	return "sim"
}

// cellFamily maps a section key to its experiment family.
func cellFamily(section string) string {
	if strings.HasPrefix(section, "exp1-") {
		return "exp1"
	}
	return section
}

// paperSetup is a prepared paper-quick run: the enumerated cells and the
// emitter that will merge them.
type paperSetup struct {
	sections []exp.Section
	specs    []grid.Spec
	byCoord  map[grid.Coord]grid.Spec
	rec      *paperRecorder
	em       *exp.Emitter
	stdout   *bytes.Buffer
}

func setupPaper(outDir string, tr *tracer, root int32) *paperSetup {
	rec := &paperRecorder{tr: tr, root: root, sections: map[string]string{}, csvs: map[string]string{}}
	ps := &paperSetup{rec: rec, stdout: &bytes.Buffer{}, byCoord: map[grid.Coord]grid.Spec{}}
	ps.sections = paperSections(rec)
	ps.specs = exp.SpecsOf(ps.sections)
	for _, s := range ps.specs {
		ps.byCoord[s.Coord] = s
	}
	ps.em = exp.NewEmitter(ps.stdout, outDir, ps.sections)
	return ps
}

// runPaper sets up and runs the quick grid once.
func runPaper(outDir string, tr *tracer) (paperRun, error) {
	var r paperRun
	start := time.Now()
	root := int32(noSpan)
	if tr != nil {
		root = tr.begin(kindRun, noSpan, layerWorkload)
	}
	ps := setupPaper(outDir, tr, root)
	r.setup = time.Since(start)

	printTables(ps.stdout)
	r.cellSecs = map[string]float64{}
	r.failedCells = map[string]int{}
	r.sectionSize = map[string]int{}
	for _, s := range ps.sections {
		r.sectionSize[s.Key] = len(s.Specs)
	}
	stats, err := grid.Run(ps.specs, grid.Options{Workers: paperWorkers}, func(res grid.Result) {
		spec := ps.byCoord[res.Coord]
		r.cellSecs[cellStack(spec)] += res.Seconds
		r.cellSecs[cellFamily(res.Coord.Section)] += res.Seconds
		if res.Seconds > r.maxCell {
			r.maxCell = res.Seconds
		}
		if res.Err != "" {
			r.failedCells[res.Coord.Section]++
		}
		if tr != nil {
			end := time.Now()
			tr.addSpan(kindCell, root, end.Add(-time.Duration(res.Seconds*float64(time.Second))), end)
		}
		ps.em.Deliver(res)
	})
	if err != nil {
		return r, err
	}
	if tr != nil {
		tr.end(root, layerWorkload)
	}
	r.stats = stats
	r.cells = stats.Cells
	r.merge = ps.rec.merge
	// A section that did not render (failed cell or merge) has no hash.
	for _, s := range ps.sections {
		if _, ok := ps.rec.sections[s.Key]; !ok && r.failedCells[s.Key] == 0 {
			r.failedCells[s.Key] = len(s.Specs)
		}
	}
	r.obs = paperObs{Stdout: sha(ps.stdout.Bytes()), Sections: ps.rec.sections, CSVs: ps.rec.csvs}
	var sum float64
	for _, v := range ps.rec.cacheErr {
		sum += v
	}
	if n := len(ps.rec.cacheErr); n > 0 {
		r.cacheErr = sum / float64(n)
	}
	return r, nil
}
