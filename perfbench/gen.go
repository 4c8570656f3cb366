package main

import (
	"math/rand"

	"repro/internal/units"
)

// Shape is the fixed part of a simulator workload: how many pipelines run,
// how large they are on average and how much the seed may vary them.
type Shape struct {
	Instances int
	MeanSize  int64   // mean bytes per pipeline file
	Spread    float64 // per-instance size drawn from MeanSize × [1−Spread, 1+Spread]
	MaxOffset float64 // start offsets drawn from [0, MaxOffset) simulated seconds
	Quantum   int64   // sizes are whole multiples of this
}

// Instance is one generated pipeline: its file size and when it starts.
type Instance struct {
	Size   int64   `json:"size"`
	Offset float64 `json:"offset"`
}

// Generate draws the per-instance sizes and start offsets for one seed.
// Both are stratified: instance k of a random permutation gets a size and an
// offset drawn from the k-th of n equal slices of their ranges. The sizes are
// then rescaled so that every seed moves the same total number of bytes.
// Seeds thus change which instance gets which size and start time, and the
// exact values, but not how much work there is or how it is distributed,
// which keeps host time comparable across seeds.
func Generate(sh Shape, seed int64) []Instance {
	rng := rand.New(rand.NewSource(seed))
	n := sh.Instances
	sizeSlot, offSlot := rng.Perm(n), rng.Perm(n)
	raw := make([]float64, n)
	var sum float64
	for i := range raw {
		u := (float64(sizeSlot[i]) + rng.Float64()) / float64(n)
		raw[i] = 1 + sh.Spread*(2*u-1)
		sum += raw[i]
	}
	total := int64(n) * (sh.MeanSize / sh.Quantum)
	out := make([]Instance, n)
	var used int64
	for i := range out {
		q := int64(raw[i] / sum * float64(total))
		if i == n-1 {
			q = total - used
		}
		used += q
		off := sh.MaxOffset * (float64(offSlot[i]) + rng.Float64()) / float64(n)
		out[i] = Instance{Size: q * sh.Quantum, Offset: off}
	}
	return out
}

// The development seed is the one used while writing the benchmark; the
// held-out seed was not used for tuning, so later gain claims can be
// rechecked on it. Both have committed expected values.
const (
	devSeed     = 1
	heldOutSeed = 7919
)

// The three simulator workloads' shapes.
var (
	concurrentShape = Shape{Instances: 32, MeanSize: 1500 * units.MB, Spread: 0.1, MaxOffset: 20, Quantum: units.MB}
	pressureShape   = Shape{Instances: 8, MeanSize: 1 * units.GB, Spread: 0.1, MaxOffset: 2, Quantum: units.MB}
	nfsShape        = Shape{Instances: 64, MeanSize: 500 * units.MB, Spread: 0.1, MaxOffset: 2, Quantum: units.MB}
)
