// Package linuxref is the repository's stand-in for the paper's "Real
// execution" measurements (see PAPER.md): a folio-granularity emulator
// of the Linux page cache with the kernel mechanisms the paper's
// block-level model deliberately simplifies away:
//
//   - per-folio two-list LRU with referenced-bit promotion (second access
//     activates, as in mark_page_accessed);
//   - watermark-driven reclaim that balances the lists and gives clean
//     inactive folios a second chance;
//   - dirty_background_ratio writeback: an asynchronous flusher thread that
//     starts writing back long before writers are throttled, plus
//     dirty_expire-based periodic writeback;
//   - balance_dirty_pages-style writer throttling at dirty_ratio;
//   - "don't evict pages of files currently open for writing" (the
//     idiosyncrasy the paper names as its main source of residual error).
//
// Driven with the measured asymmetric bandwidths of Table III, it produces
// the reference timings/profiles the simulators are scored against.
//
// # Complexity
//
// The experiment grids spend most of their time here, so reclaim and
// writeback are indexed, the way internal/core indexes its Manager. Each
// file keeps a dense folio table, and each folio points at its file's state
// and, through it, at the per-name open-writer count. Dirty folios sit on
// an intrusive FIFO in the order they were dirtied. Each of the two reclaim
// passes over the inactive list resumes at its own cursor, past the folios
// it already knows it must skip; cleaning a folio or closing a name's last
// writer moves the cursor back to the folios that became reclaimable, so a
// skipped folio is visited again only after such a change. Per operation
// (restart-at-head scan → resumable cursors):
//
//	folio lookup                 map access               → slice index
//	protection test              string-keyed map lookup  → pointer read
//	reclaim scan, per call       whole inactive list      → folios past the cursor
//	last writer's close          O(1)                     → table slots of the name
//
// On a write-heavy run the scans visit a small constant number of folios
// per folio inserted, where restarting at the head is quadratic.
package linuxref

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/des"
)

// ErrOutOfMemory mirrors core.ErrOutOfMemory for the reference model.
var ErrOutOfMemory = errors.New("linuxref: out of memory")

// Config parameterizes the reference kernel.
type Config struct {
	TotalMem  int64
	FolioSize int64 // cache granularity; 1 MiB default keeps 100 GB files tractable
	ReadChunk int64 // application I/O granularity

	DirtyRatio           float64 // writer throttle (0.20)
	DirtyBackgroundRatio float64 // async writeback start (0.10)
	DirtyExpire          float64 // seconds (30)
	FlushInterval        float64 // periodic wakeup (5)

	// WatermarkLow is the free-memory fraction reclaim restores
	// (kswapd high watermark, ~0.5 % of RAM).
	WatermarkLow float64
	// ProtectOpenWrites keeps folios of files opened for writing resident
	// (on by default: this is ground-truth behaviour).
	ProtectOpenWrites bool
	// WritebackBatch is the flusher's per-iteration write size in bytes.
	WritebackBatch int64
	// Jitter adds a deterministic per-run relative perturbation to compute
	// phases (the real cluster's 5-repetition min–max spread); 0 disables.
	Jitter float64
}

// DefaultConfig returns CentOS-8-like defaults for the given RAM size.
func DefaultConfig(totalMem int64) Config {
	return Config{
		TotalMem:             totalMem,
		FolioSize:            1 << 20,
		ReadChunk:            100e6,
		DirtyRatio:           0.20,
		DirtyBackgroundRatio: 0.10,
		DirtyExpire:          30,
		FlushInterval:        5,
		WatermarkLow:         0.005,
		ProtectOpenWrites:    true,
		WritebackBatch:       64 << 20,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TotalMem <= 0:
		return fmt.Errorf("linuxref: TotalMem must be positive")
	case c.FolioSize <= 0:
		return fmt.Errorf("linuxref: FolioSize must be positive")
	case c.ReadChunk <= 0:
		return fmt.Errorf("linuxref: ReadChunk must be positive")
	case c.DirtyRatio <= 0 || c.DirtyRatio > 1:
		return fmt.Errorf("linuxref: DirtyRatio must be in (0,1]")
	case c.DirtyBackgroundRatio <= 0 || c.DirtyBackgroundRatio > c.DirtyRatio:
		return fmt.Errorf("linuxref: DirtyBackgroundRatio must be in (0,DirtyRatio]")
	case c.FlushInterval <= 0:
		return fmt.Errorf("linuxref: FlushInterval must be positive")
	case c.WatermarkLow < 0 || c.WatermarkLow > 0.1:
		return fmt.Errorf("linuxref: WatermarkLow out of range")
	case c.WritebackBatch <= 0:
		return fmt.Errorf("linuxref: WritebackBatch must be positive")
	}
	return nil
}

// folio is one cache unit.
type folio struct {
	fs           *fileState
	idx          int64
	dirty        bool
	referenced   bool
	entry        float64 // time dirtied (writeback expiry)
	seq          uint64  // list insertion stamp: orders folios in O(1)
	prev, next   *folio
	list         *folioList
	dprev, dnext *folio // dirty FIFO links (valid while dirty)
}

// Reclaim passes over the inactive list (see scanInactive). Each has its
// own resumable cursor.
const (
	passProtect = iota // skips dirty folios and folios of open-for-write files
	passDirty          // skips dirty folios only
	numPasses
)

// folioList is an intrusive LRU list: front = LRU, back = MRU. pushBack
// stamps each folio with a strictly increasing seq. cursor[p] is where
// reclaim pass p resumes: every folio before it is known to be skipped by
// that pass, and nil means every listed folio is. Only the inactive list's
// cursors are read; the list operations keep them valid, and the Model
// rewinds them when a folio stops being skipped.
type folioList struct {
	head, tail *folio
	count      int64
	seq        uint64
	cursor     [numPasses]*folio
}

func (l *folioList) pushBack(f *folio) {
	if f.list != nil {
		panic("linuxref: folio already listed")
	}
	f.list = l
	f.prev = l.tail
	f.next = nil
	if l.tail != nil {
		l.tail.next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.count++
	l.seq++
	f.seq = l.seq
	for p, c := range l.cursor {
		if c == nil {
			l.cursor[p] = f
		}
	}
}

func (l *folioList) remove(f *folio) {
	if f.list != l {
		panic("linuxref: folio not in this list")
	}
	for p, c := range l.cursor {
		if c == f {
			l.cursor[p] = f.next
		}
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next, f.list = nil, nil, nil
	l.count--
}

// rewind moves pass p's cursor back to f, a folio of l, if f precedes it.
func (l *folioList) rewind(p int, f *folio) {
	if c := l.cursor[p]; c == nil || f.seq < c.seq {
		l.cursor[p] = f
	}
}

// dirtyFIFO threads every dirty folio in the order it was dirtied, so entry
// never decreases from head to tail.
type dirtyFIFO struct{ head, tail *folio }

func (q *dirtyFIFO) pushBack(f *folio) {
	f.dprev, f.dnext = q.tail, nil
	if q.tail != nil {
		q.tail.dnext = f
	} else {
		q.head = f
	}
	q.tail = f
}

func (q *dirtyFIFO) remove(f *folio) {
	if f.dprev != nil {
		f.dprev.dnext = f.dnext
	} else {
		q.head = f.dnext
	}
	if f.dnext != nil {
		f.dnext.dprev = f.dprev
	} else {
		q.tail = f.dprev
	}
	f.dprev, f.dnext = nil, nil
}

// fileName is the per-name state that outlives InvalidateFile: the open
// writer count (protection is keyed by name, so a re-created file is
// protected while an earlier handle is still being written) and the
// name's fileStates that hold cached folios, so that the last writer's
// close can find every folio it unprotects.
type fileName struct {
	name    string
	writers int
	states  []*fileState
}

// fileState tracks a file's folio population and its written size (write
// offsets append after existing data even when folios were evicted).
// InvalidateFile drops a fileState from Model.files; reads and writes
// already in flight keep using it.
type fileState struct {
	name   *fileName
	folios []*folio // by folio number; nil = not cached
	live   int64    // non-nil folios
	size   int64
	onName bool // registered in name.states
}

// reserve sizes fs's table for folios below n in one allocation.
func (fs *fileState) reserve(n int64) {
	if n > int64(cap(fs.folios)) {
		fs.folios = slices.Grow(fs.folios, int(n)-len(fs.folios))
	}
}

// at returns folio i, or nil if it is not cached.
func (fs *fileState) at(i int64) *folio {
	if i < int64(len(fs.folios)) {
		return fs.folios[i]
	}
	return nil
}

// Model is the reference kernel for one host. It implements
// engine.CacheModel.
type Model struct {
	cfg      Config
	files    map[string]*fileState
	names    map[string]*fileName // never deleted
	inactive folioList
	active   folioList
	dirtyQ   dirtyFIFO
	dirty    int64  // folio count
	anon     int64  // bytes
	scanned  int64  // folios visited by scanInactive
	spare    *folio // evicted folios for reuse, linked through next
	spareN   int

	k        *des.Kernel
	mkCaller func(*des.Proc) core.Caller
	wakeFl   *des.Signal // work for the flusher
	progress *des.Signal // writeback progress (throttled writers wait here)
	running  func() bool
	jitterN  int
}

// New returns a reference model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		cfg:   cfg,
		files: make(map[string]*fileState),
		names: make(map[string]*fileName),
	}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

func (m *Model) cacheBytes() int64 {
	return (m.inactive.count + m.active.count) * m.cfg.FolioSize
}
func (m *Model) dirtyBytes() int64 { return m.dirty * m.cfg.FolioSize }
func (m *Model) free() int64       { return m.cfg.TotalMem - m.anon - m.cacheBytes() }
func (m *Model) avail() int64      { return m.cfg.TotalMem - m.anon }

func (m *Model) dirtyLimit() int64 {
	return int64(m.cfg.DirtyRatio * float64(m.avail()))
}
func (m *Model) dirtyBgLimit() int64 {
	return int64(m.cfg.DirtyBackgroundRatio * float64(m.avail()))
}
func (m *Model) lowWater() int64 {
	return int64(m.cfg.WatermarkLow * float64(m.cfg.TotalMem))
}

func (m *Model) state(file string) *fileState {
	fs := m.files[file]
	if fs == nil {
		n := m.names[file]
		if n == nil {
			n = &fileName{name: file}
			m.names[file] = n
		}
		fs = &fileState{name: n}
		m.files[file] = fs
	}
	return fs
}

// insert caches a new clean folio i of fs at the inactive MRU end.
func (m *Model) insert(fs *fileState, i int64) *folio {
	if grow := i + 1 - int64(len(fs.folios)); grow > 0 {
		fs.folios = append(fs.folios, make([]*folio, grow)...)
	}
	f := m.spare
	if f != nil {
		m.spare, m.spareN = f.next, m.spareN-1
		*f = folio{fs: fs, idx: i}
	} else {
		f = &folio{fs: fs, idx: i}
	}
	fs.folios[i] = f
	fs.live++
	if !fs.onName {
		fs.onName = true
		fs.name.states = append(fs.name.states, fs)
	}
	m.inactive.pushBack(f)
	return f
}

func (m *Model) protected(f *folio) bool {
	return m.cfg.ProtectOpenWrites && f.fs.name.writers > 0
}

// closeWriter ends one WriteFile on n. When the name's last writer closes,
// its clean inactive folios lose their protection, so the protection pass
// must look at them again: its cursor rewinds to the earliest of them. The
// walk also forgets fileStates with no cached folio left.
func (m *Model) closeWriter(n *fileName) {
	n.writers--
	if n.writers > 0 {
		return
	}
	kept := n.states[:0]
	for _, fs := range n.states {
		if fs.live == 0 {
			fs.onName = false
			continue
		}
		kept = append(kept, fs)
		if !m.cfg.ProtectOpenWrites {
			continue
		}
		for _, f := range fs.folios {
			if f != nil && f.list == &m.inactive && !f.dirty {
				m.inactive.rewind(passProtect, f)
			}
		}
	}
	clear(n.states[len(kept):])
	n.states = kept
}

// markDirty flags f dirty at time now and queues it for writeback.
func (m *Model) markDirty(f *folio, now float64) {
	if !f.dirty {
		f.dirty = true
		f.entry = now
		m.dirty++
		m.dirtyQ.pushBack(f)
	}
}

// markClean unqueues a dirty f. An inactive folio that was skipped for
// being dirty may now be reclaimable, so the cursors rewind to it: the
// dirty-only pass's always, the protection pass's unless f is protected.
func (m *Model) markClean(f *folio) {
	if !f.dirty {
		return
	}
	f.dirty = false
	m.dirty--
	m.dirtyQ.remove(f)
	if f.list == &m.inactive {
		m.inactive.rewind(passDirty, f)
		if !m.protected(f) {
			m.inactive.rewind(passProtect, f)
		}
	}
}

// shrinkActive demotes active-list LRU folios into the inactive list until
// inactive ≥ active/2 (the kernel's inactive_is_low balancing), clearing
// referenced bits on the way.
func (m *Model) shrinkActive() {
	for m.active.count > 2*m.inactive.count {
		f := m.active.head
		if f == nil {
			return
		}
		m.active.remove(f)
		f.referenced = false
		m.inactive.pushBack(f)
	}
}

// reclaim evicts clean inactive folios until at least `need` bytes are
// free, escalating like the kernel's scan priority: first honoring both the
// referenced second chance and open-write protection, then force-demoting
// active folios, and as a last resort reclaiming clean folios of files
// being written (the kernel "tends not to evict" those — it still does
// under real pressure). Returns false once nothing more can be freed
// without writeback.
func (m *Model) reclaim(need int64) bool {
	for m.free() < need {
		m.shrinkActive()
		if m.scanInactive(need, true) {
			continue
		}
		if m.forceShrinkActive(need) {
			continue
		}
		if m.scanInactive(need, false) {
			continue
		}
		return false
	}
	return true
}

// scanInactive walks the inactive list LRU-first, evicting clean
// unreferenced folios (skipping protected files when honorProtection) and
// giving referenced folios their second chance. It reports whether any
// folio was actually evicted.
//
// The walk starts at the pass's cursor rather than the list head: the
// folios before it would all be skipped, and skipping changes nothing. It
// leaves the cursor where it stopped, so the dirty and protected folios a
// write-heavy run piles up at the head are passed once, not on every
// reclaim.
func (m *Model) scanInactive(need int64, honorProtection bool) bool {
	pass := passDirty
	if honorProtection {
		pass = passProtect
	}
	evicted := false
	f := m.inactive.cursor[pass]
	for f != nil && m.free() < need {
		m.scanned++
		next := f.next
		switch {
		case f.dirty || (honorProtection && m.protected(f)):
			// Writeback or protection must release it first.
		case f.referenced:
			m.inactive.remove(f)
			f.referenced = false
			m.active.pushBack(f)
		default:
			m.inactive.remove(f)
			m.untable(f)
			evicted = true
		}
		f = next
	}
	m.inactive.cursor[pass] = f
	return evicted
}

// forceShrinkActive demotes enough active folios to cover `need` (plus a
// batch margin) regardless of the 2:1 ratio — the escalation path when the
// inactive list holds nothing reclaimable. Reports whether any demotion
// happened.
func (m *Model) forceShrinkActive(need int64) bool {
	batch := need/m.cfg.FolioSize + 1024
	demoted := false
	for i := int64(0); i < batch; i++ {
		f := m.active.head
		if f == nil {
			return demoted
		}
		m.active.remove(f)
		f.referenced = false
		m.inactive.pushBack(f)
		demoted = true
	}
	return demoted
}

// spareCap bounds the evicted folios kept for reuse. Reclaim mostly makes
// room for the next inserts, so a short list catches nearly all of them
// without pinning memory that anonymous use took over.
const spareCap = 4096

// untable removes an evicted (already unlisted) folio from its file table
// and keeps it for reuse by insert.
func (m *Model) untable(f *folio) {
	f.fs.folios[f.idx] = nil
	f.fs.live--
	if m.spareN < spareCap {
		*f = folio{next: m.spare}
		m.spare = f
		m.spareN++
	}
}

// Stats / introspection -----------------------------------------------------

// Snapshot implements engine.CacheModel.
func (m *Model) Snapshot() core.Stats {
	return core.Stats{
		Total:          m.cfg.TotalMem,
		Anon:           m.anon,
		Cache:          m.cacheBytes(),
		Dirty:          m.dirtyBytes(),
		Free:           m.free(),
		Available:      m.avail(),
		ActiveBytes:    m.active.count * m.cfg.FolioSize,
		InactiveBytes:  m.inactive.count * m.cfg.FolioSize,
		ActiveBlocks:   int(m.active.count),
		InactiveBlocks: int(m.inactive.count),
		DirtyThreshold: m.dirtyLimit(),
	}
}

// CachedByFile implements engine.CacheModel.
func (m *Model) CachedByFile() map[string]int64 {
	out := make(map[string]int64, len(m.files))
	for name, fs := range m.files {
		if fs.live > 0 {
			out[name] = fs.live * m.cfg.FolioSize
		}
	}
	return out
}

// InvalidateFile implements engine.CacheModel.
func (m *Model) InvalidateFile(file string) {
	fs := m.files[file]
	if fs == nil {
		return
	}
	// Unlist before cleaning: a dropped folio needs no cursor rewind. The
	// slots go too, so a write still in flight on fs caches fresh folios.
	for _, f := range fs.folios {
		if f != nil {
			f.list.remove(f)
			m.markClean(f)
		}
	}
	fs.folios, fs.live = nil, 0
	delete(m.files, file)
}

// ReleaseAnon implements engine.CacheModel.
func (m *Model) ReleaseAnon(n int64) {
	if n < 0 || n > m.anon {
		panic(fmt.Sprintf("linuxref: invalid ReleaseAnon(%d) with anon=%d", n, m.anon))
	}
	m.anon -= n
}

// CheckInvariants verifies internal consistency, including every index:
// the file tables, the list links and seq order, the scan cursors, and the
// dirty FIFO. It costs O(cached folios + file table slots).
func (m *Model) CheckInvariants() error {
	// Lists: links, counts, strictly increasing seq, tabled folios, and the
	// inactive cursors' skipped prefixes.
	states := make(map[*fileState]bool, len(m.files))
	var listed, dirtyListed int64
	for _, l := range []*folioList{&m.inactive, &m.active} {
		var n int64
		var prev *folio
		before := [numPasses]bool{true, true}
		for f := l.head; f != nil; f = f.next {
			if n++; n > l.count {
				return fmt.Errorf("list holds more than its count %d", l.count)
			}
			if f.list != l || f.prev != prev {
				return fmt.Errorf("list link corruption at %s[%d]", f.fs.name.name, f.idx)
			}
			if prev != nil && f.seq <= prev.seq {
				return fmt.Errorf("seq %d after %d at %s[%d]", f.seq, prev.seq, f.fs.name.name, f.idx)
			}
			if f.fs.at(f.idx) != f {
				return fmt.Errorf("listed folio %s[%d] not tabled", f.fs.name.name, f.idx)
			}
			for p := range before {
				if l.cursor[p] == f {
					before[p] = false
				}
			}
			if l == &m.inactive {
				if before[passProtect] && !f.dirty && !m.protected(f) {
					return fmt.Errorf("reclaimable folio %s[%d] before the protection cursor", f.fs.name.name, f.idx)
				}
				if before[passDirty] && !f.dirty {
					return fmt.Errorf("clean folio %s[%d] before the dirty-only cursor", f.fs.name.name, f.idx)
				}
			}
			if f.dirty {
				dirtyListed++
			}
			states[f.fs] = true
			prev = f
		}
		if n != l.count || prev != l.tail {
			return fmt.Errorf("list count %d, walked %d", l.count, n)
		}
		for p, c := range l.cursor {
			if c != nil && c.list != l {
				return fmt.Errorf("cursor %d points off its list", p)
			}
		}
		listed += n
	}

	// Tables: every cached slot is a listed folio that points back at it.
	// Stale fileStates (dropped by InvalidateFile while a read or write was
	// in flight) are reached through their listed folios above.
	for name, fs := range m.files {
		if fs.name != m.names[name] || fs.name.name != name {
			return fmt.Errorf("file %s: name not interned", name)
		}
		states[fs] = true
	}
	var tabled int64
	for fs := range states {
		var live int64
		for idx, f := range fs.folios {
			if f == nil {
				continue
			}
			if f.fs != fs || f.idx != int64(idx) {
				return fmt.Errorf("folio table corruption for %s[%d]", fs.name.name, idx)
			}
			if f.list == nil {
				return fmt.Errorf("tabled folio %s[%d] not in any list", fs.name.name, idx)
			}
			live++
		}
		if live != fs.live {
			return fmt.Errorf("file %s: %d cached folios, live count %d", fs.name.name, live, fs.live)
		}
		if live > 0 && !fs.onName {
			return fmt.Errorf("file %s: cached folios but not registered with its name", fs.name.name)
		}
		if fs.name.writers < 0 {
			return fmt.Errorf("file %s: %d writers", fs.name.name, fs.name.writers)
		}
		tabled += live
	}
	if listed != tabled {
		return fmt.Errorf("listed %d folios, tables hold %d", listed, tabled)
	}

	// Dirty FIFO: exactly the dirty folios, in non-decreasing entry order.
	var queued int64
	var prev *folio
	for f := m.dirtyQ.head; f != nil; f = f.dnext {
		if queued++; queued > m.dirty {
			return fmt.Errorf("dirty FIFO longer than dirty count %d", m.dirty)
		}
		if f.dprev != prev {
			return fmt.Errorf("dirty FIFO link corruption at %s[%d]", f.fs.name.name, f.idx)
		}
		if !f.dirty || f.list == nil || f.fs.at(f.idx) != f {
			return fmt.Errorf("dirty FIFO holds clean or untabled folio %s[%d]", f.fs.name.name, f.idx)
		}
		if prev != nil && f.entry < prev.entry {
			return fmt.Errorf("dirty FIFO entry %g after %g", f.entry, prev.entry)
		}
		prev = f
	}
	if queued != m.dirty || prev != m.dirtyQ.tail {
		return fmt.Errorf("dirty FIFO holds %d, dirty count %d", queued, m.dirty)
	}
	if dirtyListed != m.dirty {
		return fmt.Errorf("dirty count %d, tracked %d", dirtyListed, m.dirty)
	}
	if m.free() < 0 {
		return fmt.Errorf("negative free memory %d", m.free())
	}
	return nil
}
