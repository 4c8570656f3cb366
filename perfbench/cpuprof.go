package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile of a traced run is attributed to the program's modules
// from outside: each sample is charged to the innermost repro/internal/...
// frame on its stack (inlined frames included). Samples inside garbage
// collection count as "gc", samples whose innermost repro frame is the
// benchmark's own code as "bench", and samples with no repro frame at all
// (scheduler, idle GC workers' setup, syscalls) as "runtime".

// cpuModules are the buckets reported as cpu.<name>_s, in print order. Any
// other repro/internal module lands in "other".
var cpuModules = []string{"linuxref", "core", "fluid", "des", "engine", "nfs", "exp", "grid",
	"platform", "pysim", "other", "bench", "gc", "runtime"}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.GC"}

// moduleOf maps a function name to its bucket, or "" for frames outside
// the repro module.
func moduleOf(fn string) string {
	const internal = "repro/internal/"
	if strings.HasPrefix(fn, internal) {
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attributeProfile returns CPU seconds per bucket from a gzipped pprof CPU
// profile.
func attributeProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 0
	}
	for _, s := range p.samples {
		out[p.bucket(s.locs)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	strings   []string
	funcName  map[uint64]int64    // function id -> string index
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []profSample
	valueSlot int // index of the cpu/nanoseconds value
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
}

func (p *profile) name(fid uint64) string {
	i := p.funcName[fid]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) bucket(locs []uint64) string {
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			n := p.name(f)
			for _, g := range gcFrames {
				if n == g {
					return "gc"
				}
			}
		}
	}
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			if m := moduleOf(p.name(f)); m != "" {
				return m
			}
		}
	}
	return "runtime"
}

// pb is a minimal protocol-buffer wire-format reader.
type pb struct{ b []byte }

var errTrunc = errors.New("truncated protobuf")

func (d *pb) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTrunc
		}
		c := d.b[0]
		d.b = d.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// next reads one field: its number, wire type, and either its varint value
// or its length-delimited payload.
func (d *pb) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = d.varint()
	case 1:
		if len(d.b) < 8 {
			return 0, 0, 0, nil, errTrunc
		}
		d.b = d.b[8:]
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if uint64(len(d.b)) < n {
				return 0, 0, 0, nil, errTrunc
			}
			payload, d.b = d.b[:n], d.b[n:]
		}
	case 5:
		if len(d.b) < 4 {
			return 0, 0, 0, nil, errTrunc
		}
		d.b = d.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	d := pb{payload}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes the fields of profile.proto the attribution uses:
// sample_type (1), sample (2), location (4), function (5), string_table (6).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	var sampleTypes [][]byte
	var rawSamples [][]byte
	d := pb{raw}
	for len(d.b) > 0 {
		f, w, _, payload, err := d.next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			sampleTypes = append(sampleTypes, payload)
		case 2:
			rawSamples = append(rawSamples, payload)
		case 4:
			if err := p.parseLocation(payload); err != nil {
				return nil, err
			}
		case 5:
			if err := p.parseFunction(payload); err != nil {
				return nil, err
			}
		case 6:
			if w != 2 {
				return nil, errors.New("bad string table entry")
			}
			p.strings = append(p.strings, string(payload))
		}
	}
	// The CPU time value is the sample type whose unit is "nanoseconds".
	p.valueSlot = -1
	for i, st := range sampleTypes {
		d := pb{st}
		for len(d.b) > 0 {
			f, _, v, _, err := d.next()
			if err != nil {
				return nil, err
			}
			if f == 2 && int(v) < len(p.strings) && p.strings[v] == "nanoseconds" {
				p.valueSlot = i
			}
		}
	}
	if p.valueSlot < 0 {
		return nil, errors.New("no nanoseconds sample type")
	}
	for _, rs := range rawSamples {
		var s profSample
		var vals []uint64
		d := pb{rs}
		for len(d.b) > 0 {
			f, w, v, payload, err := d.next()
			if err != nil {
				return nil, err
			}
			switch f {
			case 1:
				if s.locs, err = uints(s.locs, w, v, payload); err != nil {
					return nil, err
				}
			case 2:
				if vals, err = uints(vals, w, v, payload); err != nil {
					return nil, err
				}
			}
		}
		if p.valueSlot < len(vals) {
			s.nanos = int64(vals[p.valueSlot])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	d := pb{b}
	for len(d.b) > 0 {
		f, _, v, payload, err := d.next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			id = v
		case 4: // Line{function_id = 1, line = 2}; innermost inlined frame first
			ld := pb{payload}
			for len(ld.b) > 0 {
				lf, _, lv, _, err := ld.next()
				if err != nil {
					return err
				}
				if lf == 1 {
					funcs = append(funcs, lv)
				}
			}
		}
	}
	p.locFuncs[id] = funcs
	return nil
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	var name int64
	d := pb{b}
	for len(d.b) > 0 {
		f, _, v, _, err := d.next()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.funcName[id] = name
	return nil
}
