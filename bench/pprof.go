package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes — a gzipped
// protocol buffer in the profile.proto format — with the standard
// library alone, and charges every sample to a layer of the program.
// Only the fields the attribution needs are read: sample types,
// samples, locations with their (possibly inlined) lines, functions,
// the string table and the sampling period. Everything else is skipped
// by wire type.

// profile is the decoded subset of a pprof profile.
type profile struct {
	// sampleTypes holds each value column's (type, unit) names.
	sampleTypes [][2]string
	samples     []sample
	// locations maps a location id to its function ids, innermost
	// (inlined) function first, as profile.proto orders Location.line.
	locations map[uint64][]uint64
	// functions maps a function id to its name.
	functions map[uint64]string
	period    int64
}

// sample is one stack with its values; locs[0] is the leaf.
type sample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("pprof: truncated message")

// decoder walks one protocol buffer message.
type decoder struct {
	b []byte
}

func (d *decoder) done() bool { return len(d.b) == 0 }

func (d *decoder) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTruncated
		}
		c := d.b[0]
		d.b = d.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// key reads a field key: field number and wire type.
func (d *decoder) key() (int, int, error) {
	k, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

// bytes reads a length-delimited payload.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, errTruncated
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

// skip discards one field of wire type wt.
func (d *decoder) skip(wt int) error {
	switch wt {
	case 0:
		_, err := d.varint()
		return err
	case 1:
		if len(d.b) < 8 {
			return errTruncated
		}
		d.b = d.b[8:]
	case 2:
		_, err := d.bytes()
		return err
	case 5:
		if len(d.b) < 4 {
			return errTruncated
		}
		d.b = d.b[4:]
	default:
		return fmt.Errorf("pprof: unsupported wire type %d", wt)
	}
	return nil
}

// uints reads a repeated integer field in either encoding: one varint
// (wire type 0) or a packed run (wire type 2). runtime/pprof packs
// runs longer than two and writes shorter ones unpacked.
func (d *decoder) uints(wt int, dst []uint64) ([]uint64, error) {
	switch wt {
	case 0:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	case 2:
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		p := decoder{b}
		for !p.done() {
			v, err := p.varint()
			if err != nil {
				return nil, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	}
	return nil, fmt.Errorf("pprof: repeated integer with wire type %d", wt)
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx [][2]uint64
	funcName := map[uint64]uint64{}
	d := decoder{data}
	for !d.done() {
		field, wt, err := d.key()
		if err != nil {
			return nil, err
		}
		switch {
		case field == 1 && wt == 2: // sample_type
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(b)
			if err != nil {
				return nil, err
			}
			typeIdx = append(typeIdx, vt)
		case field == 2 && wt == 2: // sample
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			s, err := parseSample(b)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case field == 4 && wt == 2: // location
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			id, fns, err := parseLocation(b)
			if err != nil {
				return nil, err
			}
			p.locations[id] = fns
		case field == 5 && wt == 2: // function
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			id, name, err := parseFunction(b)
			if err != nil {
				return nil, err
			}
			funcName[id] = name
		case field == 6 && wt == 2: // string_table
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			strs = append(strs, string(b))
		case field == 12 && wt == 0: // period
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			p.period = int64(v)
		default:
			if err := d.skip(wt); err != nil {
				return nil, err
			}
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for _, vt := range typeIdx {
		typ, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, [2]string{typ, unit})
	}
	for id, si := range funcName {
		name, err := str(si)
		if err != nil {
			return nil, err
		}
		p.functions[id] = name
	}
	return p, nil
}

func parseValueType(b []byte) ([2]uint64, error) {
	var vt [2]uint64
	d := decoder{b}
	for !d.done() {
		field, wt, err := d.key()
		if err != nil {
			return vt, err
		}
		if (field == 1 || field == 2) && wt == 0 {
			if vt[field-1], err = d.varint(); err != nil {
				return vt, err
			}
			continue
		}
		if err := d.skip(wt); err != nil {
			return vt, err
		}
	}
	return vt, nil
}

func parseSample(b []byte) (sample, error) {
	var s sample
	var vals []uint64
	d := decoder{b}
	for !d.done() {
		field, wt, err := d.key()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locs, err = d.uints(wt, s.locs); err != nil {
				return s, err
			}
		case 2:
			if vals, err = d.uints(wt, vals); err != nil {
				return s, err
			}
		default:
			if err := d.skip(wt); err != nil {
				return s, err
			}
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	d := decoder{b}
	for !d.done() {
		field, wt, err := d.key()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case field == 1 && wt == 0:
			if id, err = d.varint(); err != nil {
				return 0, nil, err
			}
		case field == 4 && wt == 2: // line
			lb, err := d.bytes()
			if err != nil {
				return 0, nil, err
			}
			ld := decoder{lb}
			for !ld.done() {
				lf, lwt, err := ld.key()
				if err != nil {
					return 0, nil, err
				}
				if lf == 1 && lwt == 0 {
					fn, err := ld.varint()
					if err != nil {
						return 0, nil, err
					}
					fns = append(fns, fn)
					continue
				}
				if err := ld.skip(lwt); err != nil {
					return 0, nil, err
				}
			}
		default:
			if err := d.skip(wt); err != nil {
				return 0, nil, err
			}
		}
	}
	return id, fns, nil
}

func parseFunction(b []byte) (uint64, uint64, error) {
	var id, name uint64
	d := decoder{b}
	for !d.done() {
		field, wt, err := d.key()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case field == 1 && wt == 0:
			id, err = d.varint()
		case field == 2 && wt == 0:
			name, err = d.varint()
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return id, name, nil
}

const internalPrefix = "repro/internal/"

// layerOf names the layer a stack is charged to: walking from the leaf
// (and, inside a location, from the innermost inlined function), the
// first frame of a repro/internal/<pkg> package names <pkg>, and the
// first frame of the benchmark's own main package names "bench".
// Stacks with neither — the garbage collector, the scheduler, the HTTP
// server's connection handling before it reaches a handler — are
// charged to "runtime".
func (p *profile) layerOf(s sample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			name := p.functions[fn]
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
			if strings.HasPrefix(name, "main.") {
				return "bench"
			}
		}
	}
	return "runtime"
}

// cpuByLayer sums each layer's CPU time in nanoseconds. It reads the
// value column whose unit is nanoseconds, or counts samples times the
// period when the profile has none.
func (p *profile) cpuByLayer() (map[string]int64, int64) {
	col := -1
	for i, st := range p.sampleTypes {
		if st[1] == "nanoseconds" {
			col = i
		}
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var v int64
		switch {
		case col >= 0 && col < len(s.values):
			v = s.values[col]
		case len(s.values) > 0:
			v = s.values[0] * p.period
		}
		out[p.layerOf(s)] += v
		total += v
	}
	return out, total
}
