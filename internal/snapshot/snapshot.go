// Package snapshot defines the versioned on-disk cache-snapshot format: the
// complete cache state of a simulation — host page caches, per-cgroup
// caches, NFS-server caches (all as core.ManagerState) plus the backing
// files the cached blocks refer to — serialized as JSON. internal/scenario
// writes it (Result.WriteSnapshot, behind pcsim -snapshot-out) and reads it
// back for a "warmup": {"snapshotFile": ...} stanza (which pcsim -snapshot-in
// compiles to), so a steady state captured once can warm-start any number
// of later runs.
//
// Timestamps inside the ManagerStates are in the saving run's simulated
// clock; SavedAtSimS records that clock so restorers can rebase block times
// to their own t=0 with Manager.ShiftTimes(-SavedAtSimS).
package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// Version is the file-format version this build writes and the only one
// Decode accepts. Version 2 added per-device writeback domains inside the
// embedded core.ManagerStates (core.ManagerStateVersionPerDevice).
const Version = 2

// FileMeta describes one backing file the snapshot's cache state refers to.
// Restorers recreate missing files before restoring managers, so restored
// dirty blocks always have a placed backing file to be flushed to.
type FileMeta struct {
	Name      string `json:"name"`
	Partition string `json:"partition"`
	Size      int64  `json:"size"`
}

// File is the on-disk snapshot document.
type File struct {
	Version     int     `json:"version"`
	SavedAtSimS float64 `json:"savedAtSimS"`
	// Hosts maps host name → host page-cache state.
	Hosts map[string]*core.ManagerState `json:"hosts,omitempty"`
	// Cgroups maps cgroup name → that cgroup's private cache state.
	Cgroups map[string]*core.ManagerState `json:"cgroups,omitempty"`
	// Servers maps remote-partition name → NFS-server cache state.
	Servers map[string]*core.ManagerState `json:"servers,omitempty"`
	// Files lists every backing file referenced by the states above.
	Files []FileMeta `json:"files,omitempty"`
}

// Encode writes f as indented JSON.
func Encode(w io.Writer, f *File) error {
	if f.Version == 0 {
		f.Version = Version
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode reads a snapshot document, rejecting unknown fields and version
// mismatches.
func Decode(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("snapshot: file version %d, this build reads only version %d", f.Version, Version)
	}
	return &f, nil
}

// WriteFile saves f to path.
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := Encode(out, f); err != nil {
		out.Close()
		return fmt.Errorf("snapshot: encoding %s: %w", path, err)
	}
	return out.Close()
}

// ReadFile loads the snapshot at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer in.Close()
	return Decode(in)
}
