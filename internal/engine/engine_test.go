package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/storage"
)

// testRig builds a single host with RAM 1000 B (mem BW 100 B/s symmetric)
// and one disk (10 B/s symmetric), with a 100-byte input file "f1".
type testRig struct {
	sim  *Simulation
	hr   *HostRuntime
	part *storage.Partition
}

func newRig(t *testing.T, mode Mode) *testRig {
	t.Helper()
	r, err := buildRig(mode)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func buildRig(mode Mode) (*testRig, error) {
	sim := NewSimulation()
	spec := platform.HostSpec{
		Name: "h", Cores: 4, FlopRate: 1e9, MemoryCap: 1000,
		Memory: platform.DeviceSpec{Name: "h.mem", ReadBW: 100, WriteBW: 100},
	}
	cfg := core.DefaultConfig(1000)
	hr, err := sim.AddHost(spec, mode, cfg, 10) // 10-byte chunks
	if err != nil {
		return nil, err
	}
	part, err := hr.AddDisk(platform.DeviceSpec{Name: "h.disk", ReadBW: 10, WriteBW: 10}, "scratch", 100000)
	if err != nil {
		return nil, err
	}
	if _, err := part.CreateSized("f1", 100); err != nil {
		return nil, err
	}
	if err := sim.NS.Place("f1", part); err != nil {
		return nil, err
	}
	return &testRig{sim: sim, hr: hr, part: part}, nil
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func opDur(t *testing.T, r *testRig, name string) float64 {
	t.Helper()
	ops := r.sim.Log.ByName(name)
	if len(ops) != 1 {
		t.Fatalf("op %q logged %d times", name, len(ops))
	}
	return ops[0].Duration()
}

func TestColdThenWarmRead(t *testing.T) {
	r := newRig(t, ModeWriteback)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.ReadFile("f1", "cold"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		if err := a.ReadFile("f1", "warm"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		return nil
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Cold: 100 B at 10 B/s = 10 s. Warm: 100 B at 100 B/s = 1 s.
	if d := opDur(t, r, "cold"); !near(d, 10, 1e-6) {
		t.Fatalf("cold read = %v, want 10", d)
	}
	if d := opDur(t, r, "warm"); !near(d, 1, 1e-6) {
		t.Fatalf("warm read = %v, want 1", d)
	}
}

func TestCachelessAlwaysCold(t *testing.T) {
	r := newRig(t, ModeCacheless)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.ReadFile("f1", "r1"); err != nil {
			return err
		}
		return a.ReadFile("f1", "r2")
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r1", "r2"} {
		if d := opDur(t, r, name); !near(d, 10, 1e-6) {
			t.Fatalf("%s = %v, want 10 (no cache)", name, d)
		}
	}
}

func TestWritebackFastWrite(t *testing.T) {
	r := newRig(t, ModeWriteback)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		// Dirty threshold = 0.2 × 1000 = 200 B; a 100 B write fits.
		return a.WriteFile("f2", 100, r.part, "w")
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// All cache: 100 B at 100 B/s = 1 s.
	if d := opDur(t, r, "w"); !near(d, 1, 1e-6) {
		t.Fatalf("writeback write = %v, want 1", d)
	}
	if got, _ := r.part.Lookup("f2"); got.Size != 100 {
		t.Fatalf("file size = %d", got.Size)
	}
}

func TestWritebackThrottledWrite(t *testing.T) {
	r := newRig(t, ModeWriteback)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		// 500 B write with a 200 B dirty allowance: ≥300 B must be flushed
		// synchronously at 10 B/s ⇒ ≥30 s.
		return a.WriteFile("f2", 500, r.part, "w")
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if d := opDur(t, r, "w"); d < 30 {
		t.Fatalf("throttled write = %v, want ≥ 30 (disk-bound)", d)
	}
}

func TestWritethroughDiskSpeed(t *testing.T) {
	r := newRig(t, ModeWritethrough)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.WriteFile("f2", 100, r.part, "w"); err != nil {
			return err
		}
		// Written data is cached: re-read is warm.
		if err := a.ReadFile("f2", "r"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		return nil
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if d := opDur(t, r, "w"); !near(d, 10, 1e-6) {
		t.Fatalf("writethrough write = %v, want 10", d)
	}
	if d := opDur(t, r, "r"); !near(d, 1, 1e-6) {
		t.Fatalf("read-after-writethrough = %v, want 1 (cached)", d)
	}
}

func TestDirectIOBypassesCache(t *testing.T) {
	r := newRig(t, ModeDirectIO)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.ReadFile("f1", "r1"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		return a.ReadFile("f1", "r2")
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if d := opDur(t, r, "r2"); !near(d, 10, 1e-6) {
		t.Fatalf("direct re-read = %v, want 10", d)
	}
}

func TestPeriodicFlusherCleansDirtyData(t *testing.T) {
	r := newRig(t, ModeWriteback)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.WriteFile("f2", 100, r.part, "w"); err != nil {
			return err
		}
		a.Sleep(40) // expiry 30 s + one 5 s flush tick
		return nil
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.hr.Model.Snapshot()
	if st.Dirty != 0 {
		t.Fatalf("dirty = %d after expiry window", st.Dirty)
	}
	if st.Cache != 100 {
		t.Fatalf("cache = %d, want 100 (flushed data stays cached)", st.Cache)
	}
}

func TestConcurrentReadersShareDisk(t *testing.T) {
	r := newRig(t, ModeWriteback)
	if _, err := r.part.CreateSized("g1", 100); err != nil {
		t.Fatal(err)
	}
	if err := r.sim.NS.Place("g1", r.part); err != nil {
		t.Fatal(err)
	}
	for i, f := range []string{"f1", "g1"} {
		f := f
		r.sim.SpawnApp(r.hr, i, "app", func(a *App) error {
			err := a.ReadFile(f, "read-"+f)
			a.ReleaseTaskMemory()
			return err
		})
	}
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Two 100 B cold reads share the 10 B/s disk: each takes ≈20 s.
	for _, f := range []string{"f1", "g1"} {
		if d := opDur(t, r, "read-"+f); !near(d, 20, 0.5) {
			t.Fatalf("shared read %s = %v, want ≈20", f, d)
		}
	}
}

func TestComputeUsesCores(t *testing.T) {
	r := newRig(t, ModeWriteback)
	for i := 0; i < 8; i++ { // 8 apps, 4 cores, 5 s each ⇒ makespan 10 s
		r.sim.SpawnApp(r.hr, i, "app", func(a *App) error {
			a.Compute(5, "c")
			return nil
		})
	}
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if mk := r.sim.Makespan(); !near(mk, 10, 1e-6) {
		t.Fatalf("makespan = %v, want 10", mk)
	}
}

func TestMemTraceSampling(t *testing.T) {
	r := newRig(t, ModeWriteback)
	r.hr.EnableMemTrace(1)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.WriteFile("f2", 100, r.part, "w"); err != nil {
			return err
		}
		a.Sleep(5)
		return nil
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.hr.MemTrace.Points) < 5 {
		t.Fatalf("only %d samples", len(r.hr.MemTrace.Points))
	}
	if r.hr.MemTrace.MaxDirty() != 100 {
		t.Fatalf("max dirty = %d", r.hr.MemTrace.MaxDirty())
	}
}

func TestDeleteFileInvalidatesCache(t *testing.T) {
	r := newRig(t, ModeWriteback)
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		if err := a.ReadFile("f1", "r"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		if err := a.DeleteFile("f1"); err != nil {
			return err
		}
		return nil
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.hr.Model.CachedByFile()["f1"]; got != 0 {
		t.Fatalf("f1 still cached: %d", got)
	}
	if r.part.Used() != 0 {
		t.Fatalf("partition used = %d", r.part.Used())
	}
}

func TestPartitionCapacityEnforced(t *testing.T) {
	r := newRig(t, ModeWriteback)
	small, err := r.hr.AddDisk(platform.DeviceSpec{Name: "h.d2", ReadBW: 10, WriteBW: 10}, "tiny", 50)
	if err != nil {
		t.Fatal(err)
	}
	r.sim.SpawnApp(r.hr, 0, "app", func(a *App) error {
		return a.WriteFile("big", 100, small, "w")
	})
	err = r.sim.Run()
	if _, ok := err.(*storage.ErrNoSpace); !ok {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestNFSReadWriteThrough(t *testing.T) {
	sim := NewSimulation()
	mkHost := func(name string) *HostRuntime {
		spec := platform.HostSpec{
			Name: name, Cores: 4, FlopRate: 1e9, MemoryCap: 1000,
			Memory: platform.DeviceSpec{Name: name + ".mem", ReadBW: 100, WriteBW: 100},
		}
		hr, err := sim.AddHost(spec, ModeWriteback, core.DefaultConfig(1000), 10)
		if err != nil {
			t.Fatal(err)
		}
		return hr
	}
	client := mkHost("client")
	server := mkHost("server")
	part, err := server.AddDisk(platform.DeviceSpec{Name: "srv.disk", ReadBW: 10, WriteBW: 10}, "export", 100000)
	if err != nil {
		t.Fatal(err)
	}
	link, err := platform.NewLink(sim.Sys, platform.LinkSpec{Name: "net", BW: 50})
	if err != nil {
		t.Fatal(err)
	}
	srvMgr, err := core.NewManager(core.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MountRemote(part, link, MountOpts{SrvMgr: srvMgr, SrvMem: server.Host.Memory(), Chunk: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := part.CreateSized("rf", 100); err != nil {
		t.Fatal(err)
	}
	if err := sim.NS.Place("rf", part); err != nil {
		t.Fatal(err)
	}
	sim.SpawnApp(client, 0, "app", func(a *App) error {
		// Cold remote read: min(link 50, disk 10) = 10 B/s ⇒ 10 s.
		if err := a.ReadFile("rf", "cold"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		// Warm: client cache hit at memory speed ⇒ 1 s.
		if err := a.ReadFile("rf", "warm"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		// Remote writethrough write: min(link 50, disk 10) ⇒ 10 s.
		if err := a.WriteFile("wf", 100, part, "write"); err != nil {
			return err
		}
		return nil
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	byName := func(n string) float64 {
		ops := sim.Log.ByName(n)
		if len(ops) != 1 {
			t.Fatalf("%s logged %d times", n, len(ops))
		}
		return ops[0].Duration()
	}
	if d := byName("cold"); !near(d, 10, 1e-6) {
		t.Fatalf("cold NFS read = %v, want 10", d)
	}
	if d := byName("warm"); !near(d, 1, 1e-6) {
		t.Fatalf("warm NFS read = %v, want 1", d)
	}
	if d := byName("write"); !near(d, 10, 1e-6) {
		t.Fatalf("NFS writethrough = %v, want 10", d)
	}
	// Server cached both the read and written file.
	if srvMgr.Cached("rf") != 100 || srvMgr.Cached("wf") != 100 {
		t.Fatalf("server cache rf=%d wf=%d", srvMgr.Cached("rf"), srvMgr.Cached("wf"))
	}
}

func TestNFSServerCacheHitAfterWrite(t *testing.T) {
	// Exp 3 structure: a written file is NOT in the client cache (no client
	// write cache in our model: written blocks live client-side in
	// writeback mode only for local disks... for NFS the write path goes to
	// the server), but IS in the server cache, so a re-read streams from
	// server memory through the link.
	sim := NewSimulation()
	spec := platform.HostSpec{
		Name: "c", Cores: 4, FlopRate: 1e9, MemoryCap: 1000,
		Memory: platform.DeviceSpec{Name: "c.mem", ReadBW: 100, WriteBW: 100},
	}
	client, err := sim.AddHost(spec, ModeWriteback, core.DefaultConfig(1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	specS := spec
	specS.Name = "s"
	specS.Memory.Name = "s.mem"
	server, err := sim.AddHost(specS, ModeWriteback, core.DefaultConfig(1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	part, err := server.AddDisk(platform.DeviceSpec{Name: "s.disk", ReadBW: 10, WriteBW: 10}, "export", 100000)
	if err != nil {
		t.Fatal(err)
	}
	link, err := platform.NewLink(sim.Sys, platform.LinkSpec{Name: "net", BW: 50})
	if err != nil {
		t.Fatal(err)
	}
	srvMgr, err := core.NewManager(core.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MountRemote(part, link, MountOpts{SrvMgr: srvMgr, SrvMem: server.Host.Memory(), Chunk: 10}); err != nil {
		t.Fatal(err)
	}
	sim.SpawnApp(client, 0, "app", func(a *App) error {
		if err := a.WriteFile("wf", 100, part, "write"); err != nil {
			return err
		}
		if err := a.ReadFile("wf", "reread"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		return nil
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	ops := sim.Log.ByName("reread")
	// Server cache hit: min(link 50, server mem 100) = 50 B/s ⇒ 2 s,
	// (client caches it on the way through, so this is a remote fetch).
	if d := ops[0].Duration(); !near(d, 2, 1e-6) {
		t.Fatalf("reread = %v, want 2 (server memory through link)", d)
	}
}
