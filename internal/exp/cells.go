package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/grid"
)

// This file is the experiment side of the grid seam: every experiment family
// enumerates its independent simulation cells as grid.Specs (self-describing
// coordinates + parameters) and provides a Merge that reassembles the
// coordinate-ordered payloads into the family's result struct. The merge
// performs the exact arithmetic the old sequential loops did, in the same
// order, so reports and CSVs are byte-identical to a sequential run
// regardless of worker count or of whether the durable queue ran the cells.

// CSV is one output file of a section.
type CSV struct {
	Name  string
	Write func(io.Writer) error
}

// Output is a section's rendered deliverable: the stdout block (including
// its trailing blank line) and the CSV files to save.
type Output struct {
	Render func(io.Writer)
	CSVs   []CSV
}

// Section is one report unit of the experiment grid: an ordered set of cells
// plus the merge that turns their payloads into the section's output.
// Sections render in list order; cells complete in any order.
type Section struct {
	// Key names the section and is stamped into every cell's Coord.Section;
	// it must be unique within a run.
	Key   string
	Specs []grid.Spec
	// Merge receives the section's payloads sorted by coordinate.
	Merge func(ps []grid.Payload) (*Output, error)
}

// SpecsOf concatenates the sections' cells (the pool input: one queue across
// all sections maximizes overlap and shortens the straggler tail).
func SpecsOf(sections []Section) []grid.Spec {
	var out []grid.Spec
	for _, s := range sections {
		out = append(out, s.Specs...)
	}
	return out
}

// decodePayload unmarshals one cell payload into its typed form.
func decodePayload[P any](p grid.Payload) (P, error) {
	var v P
	if err := json.Unmarshal(p.Raw, &v); err != nil {
		return v, fmt.Errorf("decoding %s payload: %w", p.Coord, err)
	}
	return v, nil
}

// decodeAll unmarshals a section's payloads, preserving order.
func decodeAll[P any](ps []grid.Payload) ([]P, error) {
	out := make([]P, len(ps))
	for i, p := range ps {
		v, err := decodePayload[P](p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// wantCells checks a section received exactly its cell count (a merge
// precondition: the emitter only merges complete sections, so a mismatch
// means mis-enumerated coordinates).
func wantCells(ps []grid.Payload, n int) error {
	if len(ps) != n {
		return fmt.Errorf("got %d cell payloads, want %d", len(ps), n)
	}
	return nil
}

// costGB expresses a cell cost in simulated gigabytes moved — the common
// cost unit cells self-estimate with (size × instances); the scheduler only
// compares these values, so any consistent unit works.
func costGB(size int64, instances int) float64 {
	return float64(size) * float64(instances) / 1e9
}
