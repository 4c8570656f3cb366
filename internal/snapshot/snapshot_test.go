package snapshot

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func sampleFile(t *testing.T) *File {
	t.Helper()
	m, err := core.NewManager(core.DefaultConfig(100000))
	if err != nil {
		t.Fatal(err)
	}
	c := fakeCaller{}
	m.WriteToCache(&c, "data", 3000)
	m.AddToCache("data", 2000, 1.5)
	return &File{
		SavedAtSimS: 42.5,
		Hosts:       map[string]*core.ManagerState{"node0": m.SnapshotState()},
		Cgroups:     map[string]*core.ManagerState{"grp": m.SnapshotState()},
		Servers:     map[string]*core.ManagerState{"export": m.SnapshotState()},
		Files:       []FileMeta{{Name: "data", Partition: "scratch", Size: 5000}},
	}
}

// fakeCaller satisfies core.Caller for populating a manager with dirty data.
type fakeCaller struct{ now float64 }

func (f *fakeCaller) Now() float64            { return f.now }
func (f *fakeCaller) DiskRead(string, int64)  {}
func (f *fakeCaller) DiskWrite(string, int64) {}
func (f *fakeCaller) MemRead(int64)           {}
func (f *fakeCaller) MemWrite(int64)          {}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleFile(t)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if orig.Version != Version {
		t.Fatalf("Encode left version %d, want %d stamped", orig.Version, Version)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round-trip changed the document:\nwrote %+v\nread  %+v", orig, got)
	}
	// The embedded states restore into working managers.
	m, err := core.NewManager(core.DefaultConfig(100000))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(got.Hosts["node0"]); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	orig := sampleFile(t)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("file round-trip changed the document")
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version": 2, "bogus": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed document accepted")
	}
}

// TestDecodeRejectsVersion1: version-1 files are no longer read, and the
// error names the rejected version.
func TestDecodeRejectsVersion1(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"version": 1, "savedAtSimS": 3}`))
	if err == nil || !strings.Contains(err.Error(), "file version 1") {
		t.Fatalf("version 1: err = %v, want a rejection naming version 1", err)
	}
}
