package main

// perLayer declares every per-layer metric a traced run reports, with its
// unit. Workloads report 0 for layers they do not exercise.
var perLayer = func() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		// exp + grid (paper-quick)
		{"exp.real_s", "s"}, {"exp.sim_s", "s"},
		{"exp.exp1_s", "s"}, {"exp.exp2_s", "s"}, {"exp.exp3_s", "s"},
		{"exp.exp4_s", "s"}, {"exp.fig8_s", "s"}, {"exp.ablations_s", "s"},
		{"exp.merge_s", "s"}, {"exp.cache_err_pct", "%"},
		{"grid.busy_s", "s"}, {"grid.idle_s", "s"}, {"grid.max_cell_s", "s"}, {"grid.cells", "count"},
		// engine (simulator workloads)
		{"engine.build_s", "s"}, {"engine.run_s", "s"}, {"engine.app_ops", "count"}, {"engine.makespan_s", "s"},
		// core
		{"cache.read_s", "s"}, {"cache.write_s", "s"}, {"cache.read_calls", "count"}, {"cache.write_calls", "count"},
		{"core.blocks_max", "count"}, {"core.read_hit_ratio", "ratio"}, {"core.flushed_gb", "GB"},
		{"core.throttled_sim_s", "s"},
		// fluid + des + platform + nfs behind core.Caller
		{"substrate.s", "s"}, {"substrate.transfers", "count"}, {"substrate.ns_per_transfer", "ns"},
		// Go runtime and the tracer itself
		{"go.gc_cycles", "count"}, {"trace.overhead_s", "s"}, {"trace.runs", "count"}, {"trace.spans", "count"},
	}
	for _, l := range layerNames {
		ms = append(ms, struct{ name, unit string }{"self." + l + "_s", "s"})
	}
	for _, m := range cpuModules {
		ms = append(ms, struct{ name, unit string }{"cpu." + m + "_s", "s"})
	}
	return ms
}()

func knownLayerMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// tracerLayer reads one traced run's span self times and counters.
func tracerLayer(t *tracer) map[string]float64 {
	m := map[string]float64{
		"cache.read_s":        t.self[layerCacheRead].Seconds(),
		"cache.write_s":       t.self[layerCacheWrite].Seconds(),
		"cache.read_calls":    float64(t.readCalls),
		"cache.write_calls":   float64(t.writeCalls),
		"core.blocks_max":     float64(t.blocksMax),
		"engine.app_ops":      float64(t.runnerOps),
		"substrate.s":         t.self[layerSubstrate].Seconds(),
		"substrate.transfers": float64(t.transfers),
		"trace.spans":         float64(len(t.spans)),
	}
	if t.transfers > 0 {
		m["substrate.ns_per_transfer"] = float64(t.self[layerSubstrate].Nanoseconds()) / float64(t.transfers)
	}
	for i, l := range layerNames {
		m["self."+l+"_s"] = t.self[i].Seconds()
	}
	return m
}
