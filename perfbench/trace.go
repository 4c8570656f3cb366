package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/workload"
)

// The tracer records spans at the seams the benchmark owns, from outside the
// program: a workload.Runner decorator, an engine.CacheModel decorator and a
// core.Caller decorator for the simulator workloads, and the cells and
// section merges of the paper grid.
//
// Simulated processes hand one execution token around, so a Caller span of
// one process covers whatever other processes run while it is blocked, and
// subtracting child spans from parents would double-count. Self time is
// therefore charged at boundary crossings instead: every crossing charges
// the host time since the previous crossing to the layer being left, so the
// layers' self times partition the traced wall time and never overlap.

// layer is where host time is charged between two crossings.
type layer uint8

const (
	// layerWorkload is outside every span: application bodies, the DES
	// kernel between hand-offs, and background processes that call the
	// program directly.
	layerWorkload layer = iota
	// layerEngine is inside a workload.Runner call but outside the cache
	// model: engine.App bookkeeping, compute phases, the op log.
	layerEngine
	// layerCacheRead and layerCacheWrite are inside an engine.CacheModel
	// read or write, outside its core.Caller transfers.
	layerCacheRead
	layerCacheWrite
	// layerCacheOther is any other cache-model call (anonymous-memory
	// release, invalidation, sync) and the model's own flusher between its
	// transfers.
	layerCacheOther
	// layerSubstrate is inside a core.Caller transfer: the platform
	// devices, the fluid solver, the NFS substrate and the DES hand-off
	// while the caller is blocked.
	layerSubstrate
	nLayers
)

var layerNames = [nLayers]string{"workload", "engine", "cache_read", "cache_write", "cache_other", "substrate"}

// spanKind names the seam a span was recorded at.
type spanKind uint8

const (
	kindRun spanKind = iota
	kindBuild
	kindRunner
	kindCacheRead
	kindCacheWrite
	kindCacheOther
	kindCaller
	kindCell
	kindMerge
)

var kindNames = [...]string{"run", "build", "runner", "cache.read", "cache.write", "cache.other", "caller", "cell", "merge"}

// noSpan is the parent of root spans and of transfers started by background
// processes, which no benchmark-owned span encloses.
const noSpan = -1

type span struct {
	parent     int32
	kind       spanKind
	start, end time.Duration // since the tracer started
}

// tracer keeps one traced run's spans and counters in memory. Simulated
// processes run one at a time, handing off through channels, so the tracer
// needs no lock; the paper grid only touches it from grid.Run's delivering
// goroutine.
type tracer struct {
	t0    time.Time
	last  time.Duration
	cur   layer
	self  [nLayers]time.Duration
	spans []span
	// open is each simulated process's innermost open Runner span, the
	// parent of the cache-model spans it opens.
	open map[*des.Proc]int32

	runnerOps, readCalls, writeCalls, transfers int

	lists     []*core.List // the traced manager's lists, for blocks_max
	blocksMax int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[*des.Proc]int32)}
}

// cross charges the host time since the previous crossing to the current
// layer and moves to the next one.
func (t *tracer) cross(to layer) time.Duration {
	now := time.Since(t.t0)
	t.self[t.cur] += now - t.last
	t.last = now
	t.cur = to
	return now
}

// begin opens a span entering layer in.
func (t *tracer) begin(k spanKind, parent int32, in layer) int32 {
	t.spans = append(t.spans, span{parent: parent, kind: k, start: t.cross(in)})
	return int32(len(t.spans) - 1)
}

// end closes span id, returning to layer back.
func (t *tracer) end(id int32, back layer) {
	t.spans[id].end = t.cross(back)
}

// addSpan records a span whose bounds were measured elsewhere (grid cells).
func (t *tracer) addSpan(k spanKind, parent int32, start, end time.Time) {
	t.spans = append(t.spans, span{parent: parent, kind: k, start: start.Sub(t.t0), end: end.Sub(t.t0)})
}

func (t *tracer) sampleBlocks() {
	n := 0
	for _, l := range t.lists {
		n += l.Len()
	}
	if n > t.blocksMax {
		t.blocksMax = n
	}
}

// writeSpans saves the spans as gzipped CSV: id, parent, kind, start and
// end in nanoseconds since the run began.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,kind,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", i, s.parent, kindNames[s.kind], s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// tracedRunner decorates a workload.Runner (the application's view of the
// engine).
type tracedRunner struct {
	inner  workload.Runner
	t      *tracer
	proc   *des.Proc
	parent int32
}

// wrapRunner decorates r for the simulated process p; a nil tracer leaves
// it alone.
func (t *tracer) wrapRunner(r workload.Runner, p *des.Proc, parent int32) workload.Runner {
	if t == nil {
		return r
	}
	return &tracedRunner{inner: r, t: t, proc: p, parent: parent}
}

func (r *tracedRunner) call(f func() error) error {
	id := r.t.begin(kindRunner, r.parent, layerEngine)
	outer, had := r.t.open[r.proc]
	r.t.open[r.proc] = id
	err := f()
	if had {
		r.t.open[r.proc] = outer
	} else {
		delete(r.t.open, r.proc)
	}
	r.t.end(id, layerWorkload)
	r.t.runnerOps++
	return err
}

func (r *tracedRunner) ReadFile(file, label string) error {
	return r.call(func() error { return r.inner.ReadFile(file, label) })
}

func (r *tracedRunner) ReadFileN(file string, n int64, label string) error {
	return r.call(func() error { return r.inner.ReadFileN(file, n, label) })
}

func (r *tracedRunner) WriteFile(file string, size int64, label string) error {
	return r.call(func() error { return r.inner.WriteFile(file, size, label) })
}

func (r *tracedRunner) Compute(seconds float64, label string) {
	_ = r.call(func() error { r.inner.Compute(seconds, label); return nil })
}

func (r *tracedRunner) ReleaseTaskMemory() {
	_ = r.call(func() error { r.inner.ReleaseTaskMemory(); return nil })
}

func (r *tracedRunner) SnapshotCache(label string) {
	_ = r.call(func() error { r.inner.SnapshotCache(label); return nil })
}

func (r *tracedRunner) DeleteFile(file string) error {
	return r.call(func() error { return r.inner.DeleteFile(file) })
}

// IterationDone forwards workload.IterationObserver, which the engine's
// runner implements, so decorated iterative workloads still fast-forward.
func (r *tracedRunner) IterationDone(done, total int) int {
	if o, ok := r.inner.(workload.IterationObserver); ok {
		return o.IterationDone(done, total)
	}
	return 0
}

// tracedModel decorates an engine.CacheModel. Its transfers go through a
// tracedCaller, so the cache layer's self time excludes them.
type tracedModel struct {
	inner engine.CacheModel
	t     *tracer
}

// managedModel is the model interface the core-backed model implements and
// engine code type-asserts (EnablePerDeviceWriteback, fast-forward, chaos,
// sync): a decorator must keep those assertions true for a core-backed
// model and false for any other.
type managedModel interface {
	engine.CacheModel
	engine.ManagerProvider
	engine.Syncer
}

type tracedManagedModel struct {
	tracedModel
}

// wrapModel decorates m; a nil tracer leaves it alone.
func (t *tracer) wrapModel(m engine.CacheModel) engine.CacheModel {
	if t == nil {
		return m
	}
	tm := tracedModel{inner: m, t: t}
	if mm, ok := m.(managedModel); ok {
		t.lists = mm.Manager().Policy().Lists()
		return &tracedManagedModel{tm}
	}
	return &tm
}

func (m *tracedManagedModel) Manager() *core.Manager {
	return m.inner.(engine.ManagerProvider).Manager()
}

func (m *tracedManagedModel) SyncAll(c core.Caller) {
	_ = m.call(kindCacheOther, layerCacheOther, c, func(c core.Caller) error {
		m.inner.(engine.Syncer).SyncAll(c)
		return nil
	})
}

// parentOf finds the Runner span the calling process is inside.
func (m *tracedModel) parentOf(c core.Caller) int32 {
	if pc, ok := c.(interface{ Proc() *des.Proc }); ok {
		if id, open := m.t.open[pc.Proc()]; open {
			return id
		}
	}
	return noSpan
}

// call runs one cache-model call f as a span in layer in, handing f a
// decorated caller.
func (m *tracedModel) call(k spanKind, in layer, c core.Caller, f func(core.Caller) error) error {
	t := m.t
	id := t.begin(k, m.parentOf(c), in)
	err := f(t.wrapCaller(c, id, in))
	t.sampleBlocks()
	t.end(id, layerEngine)
	return err
}

func (m *tracedModel) ReadFile(c core.Caller, file string, n, fileSize int64) error {
	m.t.readCalls++
	return m.call(kindCacheRead, layerCacheRead, c, func(c core.Caller) error {
		return m.inner.ReadFile(c, file, n, fileSize)
	})
}

func (m *tracedModel) WriteFile(c core.Caller, file string, size int64) error {
	m.t.writeCalls++
	return m.call(kindCacheWrite, layerCacheWrite, c, func(c core.Caller) error {
		return m.inner.WriteFile(c, file, size)
	})
}

func (m *tracedModel) ReleaseAnon(n int64) {
	id := m.t.begin(kindCacheOther, noSpan, layerCacheOther)
	m.inner.ReleaseAnon(n)
	m.t.end(id, layerEngine)
}

func (m *tracedModel) InvalidateFile(file string) {
	id := m.t.begin(kindCacheOther, noSpan, layerCacheOther)
	m.inner.InvalidateFile(file)
	m.t.end(id, layerEngine)
}

func (m *tracedModel) Snapshot() core.Stats           { return m.inner.Snapshot() }
func (m *tracedModel) CachedByFile() map[string]int64 { return m.inner.CachedByFile() }

// Start decorates the callers of the model's background processes (the
// periodic flusher), whose core work between transfers is charged to
// layerCacheOther.
func (m *tracedModel) Start(k *des.Kernel, mkCaller func(*des.Proc) core.Caller, running func() bool) {
	m.inner.Start(k, func(p *des.Proc) core.Caller {
		return m.t.wrapCaller(mkCaller(p), noSpan, layerCacheOther)
	}, running)
}

// tracedCaller decorates a core.Caller: each transfer is a span in
// layerSubstrate whose parent is the cache-model span that started it.
type tracedCaller struct {
	inner  core.Caller
	t      *tracer
	parent int32
	back   layer
}

// tracedProcCaller also forwards Proc(), which linuxref's dirty throttling
// type-asserts; callers without it stay without it.
type tracedProcCaller struct {
	tracedCaller
}

func (c *tracedProcCaller) Proc() *des.Proc {
	return c.inner.(interface{ Proc() *des.Proc }).Proc()
}

func (t *tracer) wrapCaller(c core.Caller, parent int32, back layer) core.Caller {
	tc := tracedCaller{inner: c, t: t, parent: parent, back: back}
	if _, ok := c.(interface{ Proc() *des.Proc }); ok {
		return &tracedProcCaller{tc}
	}
	return &tc
}

func (c *tracedCaller) Now() float64 { return c.inner.Now() }

func (c *tracedCaller) span(f func()) {
	id := c.t.begin(kindCaller, c.parent, layerSubstrate)
	f()
	c.t.end(id, c.back)
	c.t.transfers++
}

func (c *tracedCaller) DiskRead(file string, n int64) {
	c.span(func() { c.inner.DiskRead(file, n) })
}

func (c *tracedCaller) DiskWrite(file string, n int64) {
	c.span(func() { c.inner.DiskWrite(file, n) })
}

func (c *tracedCaller) MemRead(n int64)  { c.span(func() { c.inner.MemRead(n) }) }
func (c *tracedCaller) MemWrite(n int64) { c.span(func() { c.inner.MemWrite(n) }) }
