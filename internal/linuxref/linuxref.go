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
// file keeps a dense folio table, and each folio names its file's state
// and, through it, the per-name open-writer count. Dirty folios sit on
// an intrusive FIFO in the order they were dirtied. Each of the two reclaim
// passes over the inactive list resumes at its own cursor, past the folios
// it already knows it must skip; cleaning a folio or closing a name's last
// writer moves the cursor back to the folios that became reclaimable, so a
// skipped folio is visited again only after such a change. Per operation
// (restart-at-head scan → resumable cursors; heap objects → slab):
//
//	folio lookup                 map access               → slice index
//	protection test              string-keyed map lookup  → two index reads
//	reclaim scan, per call       whole inactive list      → folios past the cursor
//	last writer's close          O(1)                     → table slots of the name
//	folio allocation             one heap object          → free-chain pop or slab slot
//	GC scan of cached folios     six pointers per folio   → none
//	link update                  pointer store + barrier  → int32 store
//
// On a write-heavy run the scans visit a small constant number of folios
// per folio inserted, where restarting at the head is quadratic.
//
// # Memory layout
//
// Folios hold no pointers. They live in a slab the Model owns, stored as
// fixed pages of slabPage records, and are addressed by int32 slot refs;
// slot 0 is never handed out and means "none". Every list link, list
// head and tail, scan cursor, dirty FIFO end and file table entry is a slot
// ref, a folio names its list by a uint8 id and its file by an index into
// the Model's append-only fileState table. Evicted and dropped folios are
// chained through their next link and reused before the slab grows, so the
// slab never holds more slots than the peak number of cached folios, which
// reclaim bounds by TotalMem/FolioSize (Validate rejects configurations
// whose bound does not fit in a slot ref). Because the records are
// pointer-free, the garbage collector never scans the slab and a link
// update needs no write barrier; because pages never move, growing the
// slab copies only the page table, never a folio.
package linuxref

import (
	"errors"
	"fmt"
	"math"
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
	case c.TotalMem/c.FolioSize > maxSlots:
		return fmt.Errorf("linuxref: TotalMem/FolioSize = %d folios exceeds the %d folio slots", c.TotalMem/c.FolioSize, maxSlots)
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

// Slab geometry. Slot refs run from 1 to maxSlots, so the high-water mark
// (one past the last slot handed out) still fits in an int32.
const (
	slabShift = 12
	slabPage  = 1 << slabShift // folios per page
	slabMask  = slabPage - 1
	maxSlots  = math.MaxInt32 - 1
)

// List ids (folio.list).
const (
	listNone uint8 = iota
	listInactive
	listActive
)

// folio is one cache unit, a slab record. It holds no pointers (see the
// package comment); every ref is a slot, 0 meaning none.
type folio struct {
	entry        float64 // time dirtied (writeback expiry)
	seq          uint64  // list insertion stamp: orders folios in O(1)
	idx          int64   // folio number within its file
	fs           int32   // owning fileState, an index into Model.states
	prev, next   int32   // list links; next also chains free slots
	dprev, dnext int32   // dirty FIFO links (valid while dirty)
	list         uint8   // listNone, listInactive or listActive
	dirty        bool
	referenced   bool
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
// that pass, and 0 means every listed folio is. Only the inactive list's
// cursors are read; the list operations keep them valid, and the Model
// rewinds them when a folio stops being skipped.
type folioList struct {
	id         uint8
	head, tail int32
	count      int64
	seq        uint64
	cursor     [numPasses]int32
}

// dirtyFIFO threads every dirty folio in the order it was dirtied, so entry
// never decreases from head to tail.
type dirtyFIFO struct{ head, tail int32 }

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
	folios []int32 // slot by folio number; 0 = not cached
	live   int64   // nonzero slots
	size   int64
	id     int32 // index in Model.states
	onName bool  // registered in name.states
}

// reserve sizes fs's table for folios below n in one allocation.
func (fs *fileState) reserve(n int64) {
	if n > int64(cap(fs.folios)) {
		fs.folios = slices.Grow(fs.folios, int(n)-len(fs.folios))
	}
}

// at returns the slot of folio i, or 0 if it is not cached.
func (fs *fileState) at(i int64) int32 {
	if i < int64(len(fs.folios)) {
		return fs.folios[i]
	}
	return 0
}

// Model is the reference kernel for one host. It implements
// engine.CacheModel.
type Model struct {
	cfg      Config
	files    map[string]*fileState
	names    map[string]*fileName // never deleted
	states   []*fileState         // by fileState.id; append-only
	pages    []*[slabPage]folio   // the folio slab
	top      int32                // slots [1, top) have been handed out
	freed    int32                // most recently freed slot; the free chain runs through next
	inactive folioList
	active   folioList
	dirtyQ   dirtyFIFO
	dirty    int64 // folio count
	anon     int64 // bytes
	scanned  int64 // folios visited by scanInactive

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
		cfg:      cfg,
		files:    make(map[string]*fileState),
		names:    make(map[string]*fileName),
		top:      1,
		inactive: folioList{id: listInactive},
		active:   folioList{id: listActive},
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

// Slab ----------------------------------------------------------------------

// at returns the folio in slot r (r > 0). Pages never move, so the pointer
// stays valid while the slab grows.
func (m *Model) at(r int32) *folio { return &m.pages[r>>slabShift][r&slabMask] }

// alloc hands out a zeroed slot: the most recently freed one, else the
// next never-used one.
func (m *Model) alloc() int32 {
	if r := m.freed; r != 0 {
		f := m.at(r)
		m.freed, f.next = f.next, 0
		return r
	}
	if m.top > maxSlots {
		// Validate bounds the folios reclaim keeps to maxSlots; only
		// writers inserting past it between reclaims could get here.
		panic("linuxref: folio slab exhausted")
	}
	r := m.top
	if int(r>>slabShift) == len(m.pages) {
		m.pages = append(m.pages, new([slabPage]folio))
	}
	m.top++
	return r
}

// release zeroes an unlisted, clean slot r and chains it for reuse.
func (m *Model) release(r int32) {
	*m.at(r) = folio{next: m.freed}
	m.freed = r
}

// name returns the per-name state of f's file.
func (m *Model) name(f *folio) *fileName { return m.states[f.fs].name }

// Lists ---------------------------------------------------------------------

// list returns the list with the given id.
func (m *Model) list(id uint8) *folioList {
	switch id {
	case listInactive:
		return &m.inactive
	case listActive:
		return &m.active
	}
	panic("linuxref: folio not listed")
}

// pushBack appends the unlisted folio r at l's MRU end.
func (m *Model) pushBack(l *folioList, r int32) {
	f := m.at(r)
	if f.list != listNone {
		panic("linuxref: folio already listed")
	}
	f.list = l.id
	f.prev = l.tail
	f.next = 0
	if l.tail != 0 {
		m.at(l.tail).next = r
	} else {
		l.head = r
	}
	l.tail = r
	l.count++
	l.seq++
	f.seq = l.seq
	for p, c := range l.cursor {
		if c == 0 {
			l.cursor[p] = r
		}
	}
}

// unlist removes folio r from the list it is on.
func (m *Model) unlist(r int32) {
	f := m.at(r)
	l := m.list(f.list)
	for p, c := range l.cursor {
		if c == r {
			l.cursor[p] = f.next
		}
	}
	if f.prev != 0 {
		m.at(f.prev).next = f.next
	} else {
		l.head = f.next
	}
	if f.next != 0 {
		m.at(f.next).prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next, f.list = 0, 0, listNone
	l.count--
}

// rewind moves the inactive list's pass-p cursor back to r, an inactive
// folio, if r precedes it.
func (m *Model) rewind(p int, r int32) {
	if c := m.inactive.cursor[p]; c == 0 || m.at(r).seq < m.at(c).seq {
		m.inactive.cursor[p] = r
	}
}

// queueDirty appends folio r to the dirty FIFO.
func (m *Model) queueDirty(r int32) {
	q := &m.dirtyQ
	f := m.at(r)
	f.dprev, f.dnext = q.tail, 0
	if q.tail != 0 {
		m.at(q.tail).dnext = r
	} else {
		q.head = r
	}
	q.tail = r
}

// unqueueDirty removes folio r from the dirty FIFO.
func (m *Model) unqueueDirty(r int32) {
	q := &m.dirtyQ
	f := m.at(r)
	if f.dprev != 0 {
		m.at(f.dprev).dnext = f.dnext
	} else {
		q.head = f.dnext
	}
	if f.dnext != 0 {
		m.at(f.dnext).dprev = f.dprev
	} else {
		q.tail = f.dprev
	}
	f.dprev, f.dnext = 0, 0
}

// Model operations ----------------------------------------------------------

func (m *Model) state(file string) *fileState {
	fs := m.files[file]
	if fs == nil {
		n := m.names[file]
		if n == nil {
			n = &fileName{name: file}
			m.names[file] = n
		}
		fs = &fileState{name: n, id: int32(len(m.states))}
		m.states = append(m.states, fs)
		m.files[file] = fs
	}
	return fs
}

// insert caches a new clean folio i of fs at the inactive MRU end and
// returns its slot.
func (m *Model) insert(fs *fileState, i int64) int32 {
	if grow := i + 1 - int64(len(fs.folios)); grow > 0 {
		fs.folios = append(fs.folios, make([]int32, grow)...)
	}
	r := m.alloc()
	f := m.at(r)
	f.fs, f.idx = fs.id, i
	fs.folios[i] = r
	fs.live++
	if !fs.onName {
		fs.onName = true
		fs.name.states = append(fs.name.states, fs)
	}
	m.pushBack(&m.inactive, r)
	return r
}

func (m *Model) protected(f *folio) bool {
	return m.cfg.ProtectOpenWrites && m.name(f).writers > 0
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
		for _, r := range fs.folios {
			if r == 0 {
				continue
			}
			if f := m.at(r); f.list == listInactive && !f.dirty {
				m.rewind(passProtect, r)
			}
		}
	}
	clear(n.states[len(kept):])
	n.states = kept
}

// markDirty flags folio r dirty at time now and queues it for writeback.
func (m *Model) markDirty(r int32, now float64) {
	if f := m.at(r); !f.dirty {
		f.dirty = true
		f.entry = now
		m.dirty++
		m.queueDirty(r)
	}
}

// markClean unqueues a dirty folio r. An inactive folio that was skipped
// for being dirty may now be reclaimable, so the cursors rewind to it: the
// dirty-only pass's always, the protection pass's unless it is protected.
func (m *Model) markClean(r int32) {
	f := m.at(r)
	if !f.dirty {
		return
	}
	f.dirty = false
	m.dirty--
	m.unqueueDirty(r)
	if f.list == listInactive {
		m.rewind(passDirty, r)
		if !m.protected(f) {
			m.rewind(passProtect, r)
		}
	}
}

// demote moves the active list's LRU folio to the inactive MRU end,
// clearing its referenced bit. It reports false if the active list is
// empty.
func (m *Model) demote() bool {
	r := m.active.head
	if r == 0 {
		return false
	}
	m.unlist(r)
	m.at(r).referenced = false
	m.pushBack(&m.inactive, r)
	return true
}

// shrinkActive demotes active-list LRU folios into the inactive list until
// inactive ≥ active/2 (the kernel's inactive_is_low balancing), clearing
// referenced bits on the way.
func (m *Model) shrinkActive() {
	for m.active.count > 2*m.inactive.count && m.demote() {
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
	r := m.inactive.cursor[pass]
	for r != 0 && m.free() < need {
		m.scanned++
		f := m.at(r)
		next := f.next
		switch {
		case f.dirty || (honorProtection && m.protected(f)):
			// Writeback or protection must release it first.
		case f.referenced:
			m.unlist(r)
			f.referenced = false
			m.pushBack(&m.active, r)
		default:
			m.unlist(r)
			m.untable(r)
			evicted = true
		}
		r = next
	}
	m.inactive.cursor[pass] = r
	return evicted
}

// forceShrinkActive demotes enough active folios to cover `need` (plus a
// batch margin) regardless of the 2:1 ratio — the escalation path when the
// inactive list holds nothing reclaimable. Reports whether any demotion
// happened.
func (m *Model) forceShrinkActive(need int64) bool {
	batch := need/m.cfg.FolioSize + 1024
	demoted := false
	for i := int64(0); i < batch && m.demote(); i++ {
		demoted = true
	}
	return demoted
}

// untable removes an evicted (already unlisted) folio r from its file
// table and frees its slot.
func (m *Model) untable(r int32) {
	f := m.at(r)
	fs := m.states[f.fs]
	fs.folios[f.idx] = 0
	fs.live--
	m.release(r)
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
	// table goes too, so a write still in flight on fs caches fresh folios.
	for _, r := range fs.folios {
		if r != 0 {
			m.unlist(r)
			m.markClean(r)
			m.release(r)
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
// the slab and its free chain, the file tables, the list links and seq
// order, the scan cursors, and the dirty FIFO. It costs O(slab slots + file
// table slots).
func (m *Model) CheckInvariants() error {
	if m.top < 1 || m.top > 1 && int64(m.top) > int64(len(m.pages))*slabPage {
		return fmt.Errorf("slab high-water mark %d outside its %d pages", m.top, len(m.pages))
	}
	valid := func(r int32) bool { return r > 0 && r < m.top }
	where := func(f *folio) string {
		if f.fs < 0 || int(f.fs) >= len(m.states) {
			return fmt.Sprintf("<file %d>[%d]", f.fs, f.idx)
		}
		return fmt.Sprintf("%s[%d]", m.name(f).name, f.idx)
	}
	// used marks every slot found listed or free; no slot may be both or
	// be found twice.
	used := make([]bool, m.top)

	// Lists: links, counts, strictly increasing seq, tabled folios, and the
	// inactive cursors' skipped prefixes.
	states := make(map[*fileState]bool, len(m.files))
	var listed, dirtyListed int64
	for _, l := range []*folioList{&m.inactive, &m.active} {
		var n int64
		var prev int32
		before := [numPasses]bool{true, true}
		for r := l.head; r != 0; r = m.at(r).next {
			if n++; n > l.count {
				return fmt.Errorf("list holds more than its count %d", l.count)
			}
			if !valid(r) || used[r] {
				return fmt.Errorf("list %d links slot %d twice or outside the slab", l.id, r)
			}
			used[r] = true
			f := m.at(r)
			if f.fs < 0 || int(f.fs) >= len(m.states) {
				return fmt.Errorf("slot %d names file state %d of %d", r, f.fs, len(m.states))
			}
			if f.list != l.id || f.prev != prev {
				return fmt.Errorf("list link corruption at %s", where(f))
			}
			if prev != 0 && f.seq <= m.at(prev).seq {
				return fmt.Errorf("seq %d after %d at %s", f.seq, m.at(prev).seq, where(f))
			}
			fs := m.states[f.fs]
			if fs.at(f.idx) != r {
				return fmt.Errorf("listed folio %s not tabled", where(f))
			}
			for p := range before {
				if l.cursor[p] == r {
					before[p] = false
				}
			}
			if l == &m.inactive {
				if before[passProtect] && !f.dirty && !m.protected(f) {
					return fmt.Errorf("reclaimable folio %s before the protection cursor", where(f))
				}
				if before[passDirty] && !f.dirty {
					return fmt.Errorf("clean folio %s before the dirty-only cursor", where(f))
				}
			}
			if f.dirty {
				dirtyListed++
			}
			states[fs] = true
			prev = r
		}
		if n != l.count || prev != l.tail {
			return fmt.Errorf("list count %d, walked %d", l.count, n)
		}
		for p, c := range l.cursor {
			if c != 0 && (!valid(c) || m.at(c).list != l.id) {
				return fmt.Errorf("cursor %d points off its list", p)
			}
		}
		listed += n
	}

	// Free chain: acyclic, disjoint from the lists, zero links, and with
	// the lists it covers every slot handed out.
	var freeN int64
	for r := m.freed; r != 0; r = m.at(r).next {
		if !valid(r) || used[r] {
			return fmt.Errorf("free chain reaches slot %d twice, listed or outside the slab", r)
		}
		used[r] = true
		if f := m.at(r); *f != (folio{next: f.next}) {
			return fmt.Errorf("free slot %d not zeroed", r)
		}
		freeN++
	}
	if listed+freeN != int64(m.top)-1 {
		return fmt.Errorf("slab hands out %d slots: %d listed, %d free", m.top-1, listed, freeN)
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
		if fs.id < 0 || int(fs.id) >= len(m.states) || m.states[fs.id] != fs {
			return fmt.Errorf("file %s: state id %d not registered", fs.name.name, fs.id)
		}
		var live int64
		for idx, r := range fs.folios {
			if r == 0 {
				continue
			}
			if !valid(r) {
				return fmt.Errorf("file %s: slot %d outside the slab", fs.name.name, r)
			}
			f := m.at(r)
			if f.fs != fs.id || f.idx != int64(idx) {
				return fmt.Errorf("folio table corruption for %s[%d]", fs.name.name, idx)
			}
			if f.list == listNone {
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
	var prev int32
	for r := m.dirtyQ.head; r != 0; r = m.at(r).dnext {
		if queued++; queued > m.dirty {
			return fmt.Errorf("dirty FIFO longer than dirty count %d", m.dirty)
		}
		if !valid(r) {
			return fmt.Errorf("dirty FIFO reaches slot %d outside the slab", r)
		}
		f := m.at(r)
		if f.dprev != prev {
			return fmt.Errorf("dirty FIFO link corruption at %s", where(f))
		}
		if !f.dirty || f.list == listNone || m.states[f.fs].at(f.idx) != r {
			return fmt.Errorf("dirty FIFO holds clean or untabled folio %s", where(f))
		}
		if prev != 0 && f.entry < m.at(prev).entry {
			return fmt.Errorf("dirty FIFO entry %g after %g", f.entry, m.at(prev).entry)
		}
		prev = r
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
