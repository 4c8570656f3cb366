package linuxref

import (
	"errors"
	"testing"
)

// seqCaller drives the model without a DES kernel: fixed bandwidths, one
// virtual clock. ensureFree and throttling fall back to their synchronous
// paths, which is exactly what these unit tests target.
type seqCaller struct {
	now            float64
	diskBW, memBW  float64
	diskRd, diskWr int64
	memRd, memWr   int64
	writesByFile   map[string]int64
}

func newSeqCaller() *seqCaller {
	return &seqCaller{diskBW: 100, memBW: 1000, writesByFile: map[string]int64{}}
}

func (c *seqCaller) Now() float64 { return c.now }
func (c *seqCaller) DiskRead(file string, n int64) {
	c.diskRd += n
	c.now += float64(n) / c.diskBW
}
func (c *seqCaller) DiskWrite(file string, n int64) {
	c.diskWr += n
	c.writesByFile[file] += n
	c.now += float64(n) / c.diskBW
}
func (c *seqCaller) MemRead(n int64)  { c.memRd += n; c.now += float64(n) / c.memBW }
func (c *seqCaller) MemWrite(n int64) { c.memWr += n; c.now += float64(n) / c.memBW }

func testModel(t *testing.T, total int64) *Model {
	t.Helper()
	cfg := DefaultConfig(total)
	cfg.FolioSize = 10
	cfg.ReadChunk = 100
	cfg.WritebackBatch = 50
	cfg.WatermarkLow = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TotalMem = 0 },
		func(c *Config) { c.FolioSize = 0 },
		func(c *Config) { c.ReadChunk = 0 },
		func(c *Config) { c.DirtyRatio = 0 },
		func(c *Config) { c.DirtyBackgroundRatio = 0.5 }, // > DirtyRatio
		func(c *Config) { c.FlushInterval = 0 },
		func(c *Config) { c.WatermarkLow = 0.5 },
		func(c *Config) { c.WritebackBatch = 0 },
		// 8 TiB of 4 KiB folios is 2^31 folios: more than the slot refs.
		func(c *Config) { c.TotalMem, c.FolioSize = 8<<40, 4<<10 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1000)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	// The largest RAM whose folios all fit in the slot refs.
	cfg := DefaultConfig(maxSlots * (4 << 10))
	cfg.FolioSize = 4 << 10
	if _, err := New(cfg); err != nil {
		t.Fatalf("%d folios of RAM rejected: %v", int64(maxSlots), err)
	}
}

func TestColdReadPopulatesCache(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	if err := m.ReadFile(c, "f", 500, 500); err != nil {
		t.Fatal(err)
	}
	if c.diskRd != 500 || c.memRd != 0 {
		t.Fatalf("disk=%d mem=%d", c.diskRd, c.memRd)
	}
	if m.CachedByFile()["f"] != 500 {
		t.Fatalf("cached = %d", m.CachedByFile()["f"])
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(500)
}

func TestWarmReadHitsMemory(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.ReadFile(c, "f", 500, 500)
	m.ReleaseAnon(500)
	before := c.diskRd
	if err := m.ReadFile(c, "f", 500, 500); err != nil {
		t.Fatal(err)
	}
	if c.diskRd != before || c.memRd != 500 {
		t.Fatalf("disk=%d mem=%d", c.diskRd-before, c.memRd)
	}
	m.ReleaseAnon(500)
}

func TestSecondAccessActivates(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.ReadFile(c, "f", 100, 100)
	m.ReleaseAnon(100)
	if m.active.count != 0 {
		t.Fatalf("first read already activated %d folios", m.active.count)
	}
	m.ReadFile(c, "f", 100, 100)
	m.ReleaseAnon(100)
	if m.active.count != 10 {
		t.Fatalf("second read activated %d folios, want 10", m.active.count)
	}
}

func TestWriteCreatesDirtyFolios(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	if err := m.WriteFile(c, "f", 300); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.Dirty != 300 || st.Cache != 300 {
		t.Fatalf("dirty=%d cache=%d", st.Dirty, st.Cache)
	}
	if c.memWr != 300 || c.diskWr != 0 {
		t.Fatalf("memWr=%d diskWr=%d (under both thresholds)", c.memWr, c.diskWr)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThrottlesAtDirtyLimit(t *testing.T) {
	m := testModel(t, 1000) // dirty limit 200, bg 100
	c := newSeqCaller()
	if err := m.WriteFile(c, "f", 600); err != nil {
		t.Fatal(err)
	}
	if m.dirtyBytes() > m.dirtyLimit()+m.cfg.ReadChunk {
		t.Fatalf("dirty=%d limit=%d", m.dirtyBytes(), m.dirtyLimit())
	}
	if c.diskWr == 0 {
		t.Fatal("no writeback despite throttling")
	}
}

func TestAppendContinuesAfterEviction(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "f", 100)
	// Clean and evict every folio of f (reclaim, not deletion).
	c.now += 100
	for m.dirtyQ.head != 0 {
		m.writebackBatch(c)
	}
	if !m.scanInactive(10000, false) {
		t.Fatal("nothing evicted in setup")
	}
	if got := m.CachedByFile()["f"]; got != 0 {
		t.Fatalf("setup: still %d cached", got)
	}
	// The file's written size survives eviction: appends continue at 100.
	if m.state("f").size != 100 {
		t.Fatalf("size = %d", m.state("f").size)
	}
	m.WriteFile(c, "f", 50)
	if m.state("f").size != 150 {
		t.Fatalf("size = %d after append", m.state("f").size)
	}
}

func TestInvalidateResetsFileSize(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "f", 100)
	m.InvalidateFile("f") // deletion semantics
	if m.state("f").size != 0 {
		t.Fatalf("size = %d after delete", m.state("f").size)
	}
}

func TestReclaimEvictsLRUCleanFirst(t *testing.T) {
	m := testModel(t, 1000)
	c := newSeqCaller()
	// Fill the cache with two clean files (reads), then force pressure.
	m.ReadFile(c, "old", 300, 300)
	m.ReleaseAnon(300)
	c.now += 1
	m.ReadFile(c, "new", 300, 300)
	m.ReleaseAnon(300)
	// 600 cached of 1000. Read another 300 with its anon copy: needs ~600.
	if err := m.ReadFile(c, "third", 300, 300); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(300)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.free() < 0 {
		t.Fatalf("free = %d", m.free())
	}
}

func TestProtectedFileSurvivesModeratePressure(t *testing.T) {
	// RAM 1200: victim (500, clean) + precious (800, being written) exceed
	// it by 100, so writing forces reclaim. Protection must steer eviction
	// to the victim.
	m := testModel(t, 1200)
	c := newSeqCaller()
	m.ReadFile(c, "victim", 500, 500)
	m.ReleaseAnon(500)
	if err := m.WriteFile(c, "precious", 800); err != nil {
		t.Fatal(err)
	}
	cached := m.CachedByFile()
	if cached["precious"] != 800 {
		t.Fatalf("precious cached = %d, want 800", cached["precious"])
	}
	if cached["victim"] >= 500 {
		t.Fatal("victim untouched despite pressure")
	}
}

func TestOOMOnImpossibleDemand(t *testing.T) {
	m := testModel(t, 1000)
	c := newSeqCaller()
	err := m.ReadFile(c, "huge", 5000, 5000)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFlusherBatchGroupsPerFile(t *testing.T) {
	m := testModel(t, 100000)
	c := newSeqCaller()
	m.WriteFile(c, "a", 100)
	c.now += 1
	m.WriteFile(c, "b", 100)
	// Force full writeback via the sync fallback.
	c.now += 100
	for m.dirtyQ.head != 0 {
		m.writebackBatch(c)
	}
	if c.writesByFile["a"] != 100 || c.writesByFile["b"] != 100 {
		t.Fatalf("writes: %v", c.writesByFile)
	}
	if m.dirtyBytes() != 0 {
		t.Fatalf("dirty = %d", m.dirtyBytes())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateFileDropsEverything(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "f", 300)
	m.InvalidateFile("f")
	if m.cacheBytes() != 0 || m.dirtyBytes() != 0 {
		t.Fatalf("cache=%d dirty=%d", m.cacheBytes(), m.dirtyBytes())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAccounting(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.ReadFile(c, "f", 200, 200)
	st := m.Snapshot()
	if st.Total != 10000 || st.Anon != 200 || st.Cache != 200 {
		t.Fatalf("snapshot %+v", st)
	}
	if st.Free != st.Total-st.Anon-st.Cache {
		t.Fatalf("free inconsistent: %+v", st)
	}
	m.ReleaseAnon(200)
}

func TestReleaseAnonPanicsOnOverflow(t *testing.T) {
	m := testModel(t, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReleaseAnon(1)
}

func TestComputeJitterDeterministic(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Jitter = 0.05
	m1, _ := New(cfg)
	m2, _ := New(cfg)
	for i := 0; i < 10; i++ {
		a, b := m1.ComputeJitter(3), m2.ComputeJitter(3)
		if a != b {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		if a < 0.95 || a > 1.05 {
			t.Fatalf("jitter out of range: %v", a)
		}
	}
	cfg.Jitter = 0
	m3, _ := New(cfg)
	if m3.ComputeJitter(0) != 1 {
		t.Fatal("zero jitter must be exactly 1")
	}
}

func TestPartialReadOnlyTouchesPrefix(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	if err := m.ReadFile(c, "f", 100, 500); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedByFile()["f"]; got != 100 {
		t.Fatalf("cached = %d, want 100 (prefix only)", got)
	}
	if c.diskRd != 100 {
		t.Fatalf("diskRd = %d", c.diskRd)
	}
	m.ReleaseAnon(100)
}
