package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestBlockSizeKeepsPadding pins the Block layout: the expired mark lives in
// the padding after Dirty, so the index costs no memory per cached block.
func TestBlockSizeKeepsPadding(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("layout pinned on amd64")
	}
	if got := unsafe.Sizeof(Block{}); got != 160 {
		t.Fatalf("unsafe.Sizeof(Block{}) = %d, want 160", got)
	}
}

// TestExpiryScanWorkSkipsUnexpiredSegments writes M dirty blocks, then N
// fresh dirty blocks, and reads the first M back into the active list. Once
// the M have expired (and the N have not), one periodic-flusher pass must
// write exactly the M. A list-order expiry query that walks every dirty
// segment from its front visits the whole inactive segment — N unexpired
// blocks — before each answer, M·N visits per pass; the marked-expired
// counts let the query skip that segment, so the pass visits
// O(M + calls × lists) blocks.
func TestExpiryScanWorkSkipsUnexpiredSegments(t *testing.T) {
	const old, fresh, blk = 200, 5000, int64(4096)
	m, err := NewManager(DefaultConfig(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	c := newFakeCaller()
	c.freezeClock = true
	for i := 0; i < old; i++ {
		c.now = float64(i) * 1e-3
		m.WriteToCache(c, "old", blk)
	}
	for i := 0; i < fresh; i++ {
		c.now = 2 + float64(i)*1e-4
		m.WriteToCache(c, fmt.Sprintf("new%d", i%8), blk)
	}
	c.now = 3
	m.CacheRead(c, "old", old*blk)
	if got := m.Active().FileDirtyBytes("old"); got != old*blk {
		t.Fatalf("active list holds %d dirty bytes of old, want %d", got, old*blk)
	}

	c.now = 1 + m.Config().DirtyExpire // the old blocks expired, the fresh ones not
	wb := m.WritebackPolicy().(*listOrderWriteback)
	if got := m.FlushExpired(c); got != old*blk {
		t.Fatalf("FlushExpired wrote %d bytes, want %d", got, old*blk)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	calls := int64(old + 1) // one query per write, one that finds nothing
	bound := int64(old) + calls*int64(len(m.Policy().Lists()))
	if wb.visited > bound {
		t.Fatalf("list-order NextExpired visited %d blocks for %d expired (bound %d)",
			wb.visited, old, bound)
	}
	if m.Dirty() != fresh*blk {
		t.Fatalf("dirty %d after the pass, want the %d fresh bytes", m.Dirty(), fresh*blk)
	}
}
