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

// profileSplit is a CPU profile's self samples split by layer.
type profileSplit struct {
	total  float64
	layers map[string]float64
	// copy counts samples whose leaf is runtime.duffcopy or
	// runtime.memmove: value copies such as the engine's by-value
	// event moves.
	copy float64
}

func newProfileSplit() *profileSplit {
	return &profileSplit{layers: map[string]float64{}}
}

// share returns layer's fraction of all self samples.
func (p *profileSplit) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.layers[layer] / p.total
}

// layerOf maps a profiled function name to the layer it belongs to:
// the package name for this module's packages and the runtime, bench
// for the benchmark's own code, other for the rest of the standard
// library.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "dresar/perfbench."):
		// The benchmark's package: main in the binary, its import
		// path in the test binary.
		return "bench"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "dresar/internal/"):
		pkg := strings.TrimPrefix(fn, "dresar/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	}
	return "other"
}

// generatorHelper reports whether fn is the simulator's random-number
// or Zipf machinery, whose samples belong to the generator calling it.
func generatorHelper(fn string) bool {
	return strings.HasPrefix(fn, "dresar/internal/sim.(*RNG)") ||
		strings.HasPrefix(fn, "dresar/internal/sim.(*Zipf)") ||
		strings.HasPrefix(fn, "dresar/internal/sim.NewRNG") ||
		strings.HasPrefix(fn, "dresar/internal/sim.NewZipf")
}

// add folds one gzipped pprof CPU profile into p. Each sample counts
// once, for the layer of its innermost frame; RNG and Zipf frames pass
// the sample up to their first caller outside them.
func (p *profileSplit) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range prof.locFuncs[loc] {
				frames = append(frames, prof.funcName(fid))
			}
		}
		if len(frames) == 0 {
			continue
		}
		p.total += s.count
		if frames[0] == "runtime.duffcopy" || frames[0] == "runtime.memmove" {
			p.copy += s.count
		}
		leaf := frames[0]
		for _, f := range frames {
			if !generatorHelper(f) {
				leaf = f
				break
			}
		}
		p.layers[layerOf(leaf)] += s.count
	}
	return nil
}

// The subset of the pprof protobuf schema (profile.proto) read here.
type rawProfile struct {
	samples  []rawSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strs     []string
}

type rawSample struct {
	locs  []uint64 // leaf first
	count float64
}

func (r *rawProfile) funcName(id uint64) string {
	if i, ok := r.funcs[id]; ok && i >= 0 && int(i) < len(r.strs) {
		return r.strs[i]
	}
	return ""
}

func parseProfile(b []byte) (*rawProfile, error) {
	r := &rawProfile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walk(b, func(f int, v uint64, sub []byte) error {
		switch f {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := walk(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return appendInts(&s.locs, v, sub)
				case 2:
					return appendInts(&vals, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = float64(vals[0])
			}
			r.samples = append(r.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			r.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := walk(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			r.funcs[id] = name
		case 6: // string_table
			r.strs = append(r.strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return r, nil
}

var errTruncated = errors.New("truncated protobuf")

// walk calls fn for each field of a protobuf message: v carries varint
// values, sub the bytes of length-delimited ones.
func walk(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field in either encoding:
// one varint (sub nil) or a packed run.
func appendInts(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
