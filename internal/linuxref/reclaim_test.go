package linuxref

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/units"
)

// hookCaller is a seqCaller whose blocking transfers may run another
// operation first, the way other processes run while the engine parks a
// caller mid-transfer.
type hookCaller struct {
	*seqCaller
	hook func()
}

func (c *hookCaller) DiskRead(file string, n int64) {
	c.hook()
	c.seqCaller.DiskRead(file, n)
}

func (c *hookCaller) DiskWrite(file string, n int64) {
	c.hook()
	c.seqCaller.DiskWrite(file, n)
}

func (c *hookCaller) MemRead(n int64) {
	c.hook()
	c.seqCaller.MemRead(n)
}

func (c *hookCaller) MemWrite(n int64) {
	c.hook()
	c.seqCaller.MemWrite(n)
}

// TestRandomOpsKeepInvariants mixes reads, writes, invalidations and anon
// releases on a small-RAM model and checks every index after each step.
// Invalidations and releases also fire inside the blocking transfers of
// reads and writes, so files are dropped while a write to them is still
// in flight.
func TestRandomOpsKeepInvariants(t *testing.T) {
	for _, protect := range []bool{true, false} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("protect=%v/seed=%d", protect, seed), func(t *testing.T) {
				randomOps(t, protect, seed, 400)
			})
		}
	}
}

func randomOps(t *testing.T, protect bool, seed int64, steps int) {
	t.Helper()
	cfg := DefaultConfig(2000)
	cfg.FolioSize = 10
	cfg.ReadChunk = 45 // not folio-aligned: chunks share boundary folios
	cfg.WritebackBatch = 50
	cfg.WatermarkLow = 0
	cfg.ProtectOpenWrites = protect
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c", "d"}
	check := func(what string) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	release := func() {
		if m.anon > 0 {
			m.ReleaseAnon(rng.Int63n(m.anon) + 1)
		}
	}
	nested := false
	c := &hookCaller{seqCaller: newSeqCaller()}
	c.hook = func() {
		if nested || rng.Intn(8) != 0 {
			return
		}
		nested = true
		defer func() { nested = false }()
		check("transfer")
		if rng.Intn(2) == 0 {
			m.InvalidateFile(names[rng.Intn(len(names))])
		} else {
			release()
		}
		check("nested op")
	}
	for i := 0; i < steps; i++ {
		name := names[rng.Intn(len(names))]
		var what string
		switch op := rng.Intn(10); {
		case op < 4:
			n := rng.Int63n(800) + 1
			what = fmt.Sprintf("ReadFile(%s, %d)", name, n)
			err = m.ReadFile(c, name, n, n+rng.Int63n(200))
		case op < 8:
			n := rng.Int63n(700) + 1
			what = fmt.Sprintf("WriteFile(%s, %d)", name, n)
			err = m.WriteFile(c, name, n)
		case op < 9:
			what = fmt.Sprintf("InvalidateFile(%s)", name)
			m.InvalidateFile(name)
		default:
			what = "ReleaseAnon"
			release()
		}
		if err != nil && !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("%s: %v", what, err)
		}
		err = nil
		check(what)
		c.now += rng.Float64() * 10
	}
}

// TestScanWorkLinearInFolios writes a file four times the size of RAM and
// reads it back. Every reclaim in the write finds the written file's
// protected folios at the head of the inactive list; resuming at the scan
// cursors keeps the folios visited proportional to those inserted, where
// restarting at the head visits the whole list on every reclaim.
func TestScanWorkLinearInFolios(t *testing.T) {
	const ram = 10000
	m := testModel(t, ram)
	c := newSeqCaller()
	if err := m.WriteFile(c, "big", 4*ram); err != nil {
		t.Fatal(err)
	}
	// Re-read a prefix (the read's anon copy must fit in RAM).
	if err := m.ReadFile(c, "big", ram/2, 4*ram); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	inserted := (4*ram + ram/2) / m.cfg.FolioSize
	if m.scanned > 3*inserted {
		t.Fatalf("scanInactive visited %d folios for %d inserted", m.scanned, inserted)
	}
}

// TestInvalidateWhileWriting drops and re-reads a file under the engine
// while another application is still writing it. Protection is keyed by
// name, so the re-read's folios are protected until the writer closes even
// though they belong to a fresh file table. The reclaim passes skip them
// meanwhile, and the writer's close must rewind the protection cursor so
// they become reclaimable again.
func TestInvalidateWhileWriting(t *testing.T) {
	sim := engine.NewSimulation()
	ram := 1 * units.GiB
	cfg := DefaultConfig(ram)
	cfg.ReadChunk = 10 * units.MB
	cfg.FolioSize = 1 * units.MiB
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host, err := sim.AddHostWithModel(platform.HostSpec{
		Name: "h", Cores: 4, FlopRate: 1e9, MemoryCap: ram,
		Memory: platform.RealMemorySpec("h.mem"),
	}, engine.ModeWriteback, m)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := host.AddDisk(platform.RealLocalDiskSpec("h.disk"), "scratch", 450*units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	const file = "shared"
	var writerFS, rereadFS *fileState
	writerDone := false
	// skippedProtected: while the writer was open, the protection cursor
	// had passed a clean inactive folio of the re-read.
	skippedProtected := false
	sim.SpawnApp(host, 0, "writer", func(a *engine.App) error {
		if err := a.WriteFile(file, 2000*units.MB, disk, "w"); err != nil {
			return err
		}
		writerDone = true
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("after the writer's close: %w", err)
		}
		if first := earliestClean(m, rereadFS); first == 0 {
			return errors.New("no re-read folio left on the inactive list at close")
		} else if c := m.inactive.cursor[passProtect]; c == 0 || m.at(c).seq > m.at(first).seq {
			return errors.New("protection cursor not rewound at close")
		}
		return nil
	})
	sim.SpawnApp(host, 1, "reader", func(a *engine.App) error {
		a.Sleep(1.5)
		writerFS = m.files[file]
		m.InvalidateFile(file)
		if err := a.ReadFileN(file, 200*units.MB, "r"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		rereadFS = m.files[file]
		if writerDone || rereadFS == writerFS || rereadFS.name != writerFS.name {
			return errors.New("re-read must share the open writer's name, not its file table")
		}
		for idx, r := range rereadFS.folios {
			if r != 0 && !m.protected(m.at(r)) {
				return fmt.Errorf("re-read folio %d unprotected while the writer is open", idx)
			}
		}
		return nil
	})
	sim.SpawnApp(host, 2, "monitor", func(a *engine.App) error {
		for !writerDone {
			a.Sleep(0.05)
			if err := m.CheckInvariants(); err != nil {
				return fmt.Errorf("t=%.2f: %w", a.Now(), err)
			}
			if first := earliestClean(m, rereadFS); first != 0 && !writerDone {
				if c := m.inactive.cursor[passProtect]; c == 0 || m.at(c).seq > m.at(first).seq {
					skippedProtected = true
				}
			}
		}
		return nil
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !skippedProtected {
		t.Fatal("the protection pass never skipped the re-read's folios")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// earliestClean returns the slot of fs's first clean folio on the inactive
// list, or 0 if there is none.
func earliestClean(m *Model, fs *fileState) int32 {
	if fs == nil {
		return 0
	}
	var first int32
	for _, r := range fs.folios {
		if r == 0 {
			continue
		}
		if f := m.at(r); f.list == listInactive && !f.dirty && (first == 0 || f.seq < m.at(first).seq) {
			first = r
		}
	}
	return first
}
