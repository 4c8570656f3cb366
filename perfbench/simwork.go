package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// simObs is what one simulator run must reproduce exactly: the makespan, the
// op log's fingerprint and size, and the core model's counters (zero for a
// host without one).
type simObs struct {
	MakespanS     float64 `json:"makespan_s"`
	Fingerprint   string  `json:"fingerprint"`
	Ops           int     `json:"ops"`
	ReadHitBytes  int64   `json:"read_hit_bytes"`
	ReadMissBytes int64   `json:"read_miss_bytes"`
	FlushedBytes  int64   `json:"flushed_bytes"`
	ThrottledS    float64 `json:"throttled_s"`
	CachedBlocks  int     `json:"cached_blocks"`
}

// simRig is one built, not yet run, simulation: the application host and
// the partitions its pipelines write to.
type simRig struct {
	sim   *engine.Simulation
	mgr   *core.Manager // nil when the application host has no core model
	hr    *engine.HostRuntime
	parts []*storage.Partition
}

// simWorkload is a simulator workload: its generator shape and how to build
// the platform, with the pipelines' input files, from generated inputs.
type simWorkload struct {
	shape Shape
	chunk int64
	build func(w *simWorkload, in []Instance, tr *tracer) (*simRig, error)
}

// createInputs creates each instance's input file on parts[i%len(parts)].
func (rig *simRig) createInputs(in []Instance) error {
	for i, inst := range in {
		part := rig.parts[i%len(rig.parts)]
		name := workload.SyntheticFiles(i)[0]
		if _, err := part.CreateSized(name, inst.Size); err != nil {
			return fmt.Errorf("creating input %s: %w", name, err)
		}
		if err := rig.sim.NS.Place(name, part); err != nil {
			return err
		}
	}
	return nil
}

// startPipelines spawns each instance's synthetic pipeline, which begins
// after the instance's start offset.
func (rig *simRig) startPipelines(in []Instance, tr *tracer, root int32) {
	for i, inst := range in {
		i, inst := i, inst
		part := rig.parts[i%len(rig.parts)]
		rig.sim.SpawnApp(rig.hr, i, fmt.Sprintf("app%d", i), func(a *engine.App) error {
			a.Sleep(inst.Offset)
			r := tr.wrapRunner(&workload.EngineRunner{App: a, Part: part}, a.Proc(), root)
			return workload.RunSynthetic(r, workload.SyntheticSpec{
				Size: inst.Size, CPU: workload.SyntheticCPU(inst.Size), Files: workload.SyntheticFiles(i),
			})
		})
	}
}

// buildConcurrent is WRENCH-cache in writeback mode on the paper's 250 GiB
// node with one local disk: every pipeline reads back the file it just
// wrote, so the core model's list upkeep dominates.
func buildConcurrent(w *simWorkload, in []Instance, tr *tracer) (*simRig, error) {
	sim := engine.NewSimulation()
	mgr, err := core.NewManager(core.DefaultConfig(exp.RAM))
	if err != nil {
		return nil, err
	}
	model, err := engine.NewCoreModel(mgr, w.chunk, engine.ModeWriteback)
	if err != nil {
		return nil, err
	}
	hr, err := sim.AddHostWithModel(platform.PaperHostSpec("node0", platform.SimMemorySpec("node0.mem")),
		engine.ModeWriteback, tr.wrapModel(model))
	if err != nil {
		return nil, err
	}
	part, err := hr.AddDisk(platform.SimLocalDiskSpec("node0.disk"), "scratch", exp.DiskCap)
	if err != nil {
		return nil, err
	}
	rig := &simRig{sim: sim, mgr: mgr, hr: hr, parts: []*storage.Partition{part}}
	return rig, rig.createInputs(in)
}

// Cache-pressure host: RAM far below the working set, a fast and a slow
// disk with per-device writeback domains.
const (
	pressureRAM      = 12 * units.GiB
	pressureNVMeMBps = 2000
	pressureHDDMBps  = 150
	pressureDiskCap  = 256 * units.GiB
)

// buildPressure runs the pipelines on a small-memory host whose instances
// alternate between the two disks: eviction scans, dirty throttling and the
// per-device flushers set the cost.
func buildPressure(w *simWorkload, in []Instance, tr *tracer) (*simRig, error) {
	sim := engine.NewSimulation()
	cfg := core.DefaultConfig(pressureRAM)
	cfg.DirtyBackgroundRatio = 0.10
	mgr, err := core.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	model, err := engine.NewCoreModel(mgr, w.chunk, engine.ModeWriteback)
	if err != nil {
		return nil, err
	}
	spec := platform.PaperHostSpec("node0", platform.SimMemorySpec("node0.mem"))
	spec.MemoryCap = pressureRAM
	hr, err := sim.AddHostWithModel(spec, engine.ModeWriteback, tr.wrapModel(model))
	if err != nil {
		return nil, err
	}
	var parts []*storage.Partition
	for _, d := range []struct {
		name string
		mbps float64
	}{{"nvme", pressureNVMeMBps}, {"hdd", pressureHDDMBps}} {
		bw := units.MBps(d.mbps)
		part, err := hr.AddDisk(platform.DeviceSpec{Name: d.name, ReadBW: bw, WriteBW: bw, Capacity: pressureDiskCap},
			d.name+"-scratch", pressureDiskCap)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	if err := hr.EnablePerDeviceWriteback(nil); err != nil {
		return nil, err
	}
	rig := &simRig{sim: sim, mgr: mgr, hr: hr, parts: parts}
	return rig, rig.createInputs(in)
}

// buildNFSCacheless is the Fig 8 WRENCH baseline: cacheless clients
// streaming to an uncached NFS server, so no client cache model does any
// work and the flow solver and event kernel carry the run.
func buildNFSCacheless(w *simWorkload, in []Instance, tr *tracer) (*simRig, error) {
	sim := engine.NewSimulation()
	client, err := sim.AddHostWithModel(platform.PaperHostSpec("client", platform.SimMemorySpec("client.mem")),
		engine.ModeCacheless, tr.wrapModel(engine.NewCachelessModel(w.chunk)))
	if err != nil {
		return nil, err
	}
	server, err := sim.AddHost(platform.PaperHostSpec("server", platform.SimMemorySpec("server.mem")),
		engine.ModeWriteback, core.DefaultConfig(exp.RAM), w.chunk)
	if err != nil {
		return nil, err
	}
	part, err := server.AddDisk(platform.SimRemoteDiskSpec("server.disk"), "export", exp.DiskCap)
	if err != nil {
		return nil, err
	}
	link, err := platform.NewLink(sim.Sys, platform.ClusterNetworkSpec("net"))
	if err != nil {
		return nil, err
	}
	if err := client.MountRemote(part, link, engine.MountOpts{Chunk: w.chunk}); err != nil {
		return nil, err
	}
	rig := &simRig{sim: sim, hr: client, parts: []*storage.Partition{part}}
	return rig, rig.createInputs(in)
}

var simWorkloads = map[string]*simWorkload{
	"cache-concurrent": {shape: concurrentShape, chunk: 1 * units.MB, build: buildConcurrent},
	"cache-pressure":   {shape: pressureShape, chunk: 1 * units.MB, build: buildPressure},
	"nfs-cacheless":    {shape: nfsShape, chunk: 2 * units.MB, build: buildNFSCacheless},
}

// simRun is one timed simulator run.
type simRun struct {
	setup, build, exec time.Duration
	obs                simObs
}

// runSim generates the inputs for seed, builds the platform and input
// files (the set-up), then starts the pipelines and runs the simulation.
func (w *simWorkload) runSim(seed int64, tr *tracer) (simRun, error) {
	var r simRun
	start := time.Now()
	in := Generate(w.shape, seed)
	root, b := int32(noSpan), int32(noSpan)
	if tr != nil {
		root = tr.begin(kindRun, noSpan, layerWorkload)
		b = tr.begin(kindBuild, root, layerWorkload)
	}
	buildStart := time.Now()
	rig, err := w.build(w, in, tr)
	if err != nil {
		return r, err
	}
	r.build = time.Since(buildStart)
	r.setup = time.Since(start)
	if tr != nil {
		tr.end(b, layerWorkload)
	}
	execStart := time.Now()
	rig.startPipelines(in, tr, root)
	if err := rig.sim.Run(); err != nil {
		return r, err
	}
	r.exec = time.Since(execStart)
	if tr != nil {
		tr.end(root, layerWorkload)
	}
	r.obs = rig.observe()
	return r, nil
}

// setupOnly repeats a run's set-up without running the pipelines. The
// platform's background processes already exist as goroutines, so the
// empty simulation is run afterwards, untimed, to let them exit.
func (w *simWorkload) setupOnly(seed int64) (time.Duration, error) {
	start := time.Now()
	rig, err := w.build(w, Generate(w.shape, seed), nil)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, rig.sim.Run()
}

func (rig *simRig) observe() simObs {
	log := rig.sim.Log
	o := simObs{
		MakespanS:   rig.sim.Makespan(),
		Fingerprint: fmt.Sprintf("%016x", log.Fingerprint(0, len(log.Ops))),
		Ops:         len(log.Ops),
	}
	if m := rig.mgr; m != nil {
		o.ReadHitBytes = m.ReadHitBytes()
		o.ReadMissBytes = m.ReadMissBytes()
		o.FlushedBytes = m.FlushedBytes()
		o.ThrottledS = m.WriteThrottledSeconds()
		for _, l := range m.Policy().Lists() {
			o.CachedBlocks += l.Len()
		}
	}
	return o
}
