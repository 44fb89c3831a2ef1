package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a runtime/pprof CPU profile to the simulator's
// layers. Each sample goes to the layer that owns its innermost
// repro/internal/... frame, so runtime work (allocation, GC assists) done
// on a layer's behalf counts toward that layer; samples under the GC's
// background mark workers go to "gc"; everything else goes to "other".
// The layer times therefore sum to the profiled total by construction.

// layerOfModule maps each repro/internal module to its layer.
var layerOfModule = map[string]string{
	"sim":      "sim",
	"netsim":   "netsim",
	"diffserv": "netsim",
	"wireless": "wireless",
	"buffer":   "buffer",
	"core":     "core",
	"mip":      "core",
	"mip4":     "core",
	"fho":      "core",
	"stats":    "telemetry",
	"trace":    "telemetry",
	"inet":     "inet",
	"traffic":  "traffic",
	"tcp":      "traffic",
	"runner":   "runner",
	"scenario": "scenario",
	"prof":     "other",
}

// layers lists every layer a profile is attributed to, in report order.
var layers = []string{"sim", "shard", "netsim", "wireless", "buffer", "core",
	"telemetry", "inet", "traffic", "scenario", "runner", "gc", "other"}

// shardFiles are the sources whose frames belong to the shard layer
// (ShardGroup and its epoch barrier; ShardExchange and its ports) rather
// than to their module.
var shardFiles = []string{"/internal/sim/shard.go", "/internal/netsim/shard.go"}

const internalPrefix = "repro/internal/"

// layerOf returns the layer owning a frame, or "" for a frame outside
// repro/internal.
func layerOf(function, file string) string {
	rest, ok := strings.CutPrefix(function, internalPrefix)
	if !ok {
		return ""
	}
	for _, f := range shardFiles {
		if strings.HasSuffix(file, f) {
			return "shard"
		}
	}
	module := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		module = rest[:i]
	}
	if layer, ok := layerOfModule[module]; ok {
		return layer
	}
	return "other"
}

// attribute decodes a gzipped pprof CPU profile and adds each sample's CPU
// nanoseconds to its layer in byLayer.
func attribute(gz []byte, byLayer map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	// The CPU profile's values are (samples, cpu nanoseconds).
	const nanosIndex = 1
	for _, s := range p.samples {
		if len(s.values) <= nanosIndex {
			return errors.New("profile: sample without a cpu value")
		}
		byLayer[p.layerOfStack(s.locations)] += s.values[nanosIndex]
	}
	return nil
}

// layerOfStack walks a sample's stack from the leaf; within a location
// the lines run from the innermost inlined call outwards.
func (p *profile) layerOfStack(stack []uint64) string {
	for _, id := range stack {
		for _, fid := range p.locations[id] {
			if fn := p.functions[fid]; fn.name == "runtime.gcBgMarkWorker" {
				return "gc"
			}
		}
	}
	for _, id := range stack {
		for _, fid := range p.locations[id] {
			fn := p.functions[fid]
			if layer := layerOf(fn.name, fn.file); layer != "" {
				return layer
			}
		}
	}
	return "other"
}

type profSample struct {
	locations []uint64
	values    []int64
}

type function struct{ name, file string }

// profile holds the parts of a pprof Profile message the attribution
// needs.
type profile struct {
	samples []profSample
	// locations maps a location id to its line's function ids, innermost
	// first.
	locations map[uint64][]uint64
	functions map[uint64]function
}

// decodeProfile reads a profile.proto Profile message: samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	type rawFunc struct{ id, name, file uint64 }
	var funcs []rawFunc
	var strs []string
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s profSample
			err := fields(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return varints(v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := fields(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fids
			return err
		case 5:
			var f rawFunc
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			funcs = append(funcs, f)
			return err
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, f := range funcs {
		name, err := str(f.name)
		if err != nil {
			return nil, err
		}
		file, err := str(f.file)
		if err != nil {
			return nil, err
		}
		p.functions[f.id] = function{name: name, file: file}
	}
	return p, nil
}

// fields calls visit for each field of a protobuf message with its number
// and either its varint value or its length-delimited payload. Fixed-width
// fields are skipped; the profile messages read here have none.
func fields(b []byte, visit func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := visit(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one value
// (v, payload nil) or a packed run (payload).
func varints(v uint64, packed []byte, add func(uint64)) error {
	if packed == nil {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
