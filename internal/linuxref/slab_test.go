package linuxref

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestFolioHoldsNoPointers pins the folio record pointer-free: a pointer,
// slice, map, string, interface, chan or func field would make the
// garbage collector scan every slab page again and put a write barrier on
// every store to it.
func TestFolioHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("folio field %s is a %s: the slab must stay pointer-free", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(strings.TrimPrefix(path+"."+f.Name, "."), f.Type)
			}
		}
	}
	walk("", reflect.TypeOf(folio{}))
}

// TestFolioSize pins the folio record to 48 bytes: the slab holds one per
// cached folio, about 100 k per 100 GB file.
func TestFolioSize(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("layout pinned on amd64")
	}
	if got := unsafe.Sizeof(folio{}); got > 48 {
		t.Fatalf("unsafe.Sizeof(folio{}) = %d, want <= 48", got)
	}
}

// TestSlabReusesFreedSlots runs a seeded evict-heavy mix of reads, writes
// and invalidations that moves many times RAM through the cache. Evicted
// and dropped slots must be reused before the slab grows, so its
// high-water mark stays within the peak live folio count (which reclaim
// bounds by TotalMem/FolioSize on a sequential run) plus the unused slot 0.
func TestSlabReusesFreedSlots(t *testing.T) {
	const ram = 2000
	m := testModel(t, ram)
	capacity := int32(ram / m.cfg.FolioSize)
	c := newSeqCaller()
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c"}
	var peak int32
	for i := 0; i < 300; i++ {
		name := names[rng.Intn(len(names))]
		var err error
		switch op := rng.Intn(8); {
		case op < 3:
			n := rng.Int63n(ram/2) + 1 // the anon copy must fit too
			err = m.ReadFile(c, name, n, n)
			m.ReleaseAnon(m.anon)
		case op < 7:
			err = m.WriteFile(c, name, rng.Int63n(2*ram)+1)
		default:
			m.InvalidateFile(name)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		peak = max(peak, int32(m.inactive.count+m.active.count))
		c.now += rng.Float64() * 10
	}
	if moved := (c.diskRd + c.memWr) / m.cfg.FolioSize; moved < 20*int64(capacity) {
		t.Fatalf("only %d folios moved through a %d-folio cache: not evict-heavy", moved, capacity)
	}
	if m.top-1 < peak || m.top > capacity+1 {
		t.Fatalf("slab high-water mark %d, sampled peak %d live folios, capacity %d", m.top, peak, capacity)
	}
	// Dropping every file frees every slot; reading back reuses them.
	top := m.top
	for _, name := range names {
		m.InvalidateFile(name)
	}
	if err := m.ReadFile(c, "a", ram/2, ram/2); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.top != top {
		t.Fatalf("slab grew from %d to %d with every slot free", top, m.top)
	}
}

// TestCheckInvariantsCatchesSlabCorruption corrupts a small model's slab in
// each of the ways CheckInvariants must notice.
func TestCheckInvariantsCatchesSlabCorruption(t *testing.T) {
	setup := func(t *testing.T) *Model {
		t.Helper()
		m := testModel(t, 1000)
		c := newSeqCaller()
		if err := m.WriteFile(c, "f", 300); err != nil {
			t.Fatal(err)
		}
		m.InvalidateFile("f") // 30 free slots
		if err := m.ReadFile(c, "g", 100, 100); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAnon(m.anon)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.freed == 0 || m.inactive.head == 0 {
			t.Fatal("setup left no free or no listed slot")
		}
		return m
	}
	cases := map[string]func(m *Model){
		"free chain cycle": func(m *Model) {
			m.at(m.at(m.freed).next).next = m.freed
		},
		"listed slot on the free chain": func(m *Model) {
			f := m.at(m.freed)
			f.next = m.inactive.head
		},
		"free slot with links": func(m *Model) {
			m.at(m.freed).dprev = m.inactive.head
		},
		"leaked slot": func(m *Model) {
			m.freed = m.at(m.freed).next
		},
		"slot outside the slab": func(m *Model) {
			m.at(m.inactive.tail).next = m.top
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			m := setup(t)
			corrupt(m)
			if err := m.CheckInvariants(); err == nil {
				t.Fatal("corruption not detected")
			}
		})
	}
}
