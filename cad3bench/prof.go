package main

// A CPU profile split by package. The city runs on one event loop whose
// stages have no public boundary to time from outside, so the traced run
// samples it with runtime/pprof instead. This file decodes the profile's
// protobuf (the standard library has no reader for it) just far enough to
// charge each sample's self time to a package. Goroutines doing the
// benchmark's own work (the load generator, the warning reader, the
// offline reference) carry a pprof label and are left out of the shares,
// so prof.* describe the system under test.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profPackages are the repo modules whose CPU share is reported as
// prof.<name>. Everything else lands in prof.other.
var profPackages = []string{"netem", "stream", "geo", "city", "core", "mlkit", "microbatch", "rsu", "runtime", "other"}

var loadLabels = pprof.WithLabels(context.Background(), pprof.Labels("role", "load"))

// asLoad marks the calling goroutine (and goroutines it starts) as the
// benchmark's own work; asSystem marks it as the system under test.
func asLoad()   { pprof.SetGoroutineLabels(loadLabels) }
func asSystem() { pprof.SetGoroutineLabels(context.Background()) }

// cpuProfile records a CPU profile between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the sampled CPU nanoseconds charged
// to each of profPackages.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return packageTimes(p.buf.Bytes())
}

// category names the package a function's self time is charged to. ok is
// false for standard-library helpers (sort, container/heap, sync, time,
// ...), whose time is charged to the nearest caller with a category: the
// heap pops inside netem's event queue count as netem.
func category(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of a generic instantiation
	}
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "cad3/internal/"):
		name := strings.TrimPrefix(pkg, "cad3/internal/")
		for _, p := range profPackages {
			if p == name {
				return name, true
			}
		}
		return "other", true
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	case pkg == "main" || strings.HasPrefix(pkg, "cad3/"):
		return "other", true
	}
	return "", false
}

// packageTimes decodes a gzipped pprof CPU profile and returns the
// sampled CPU nanoseconds charged to each of profPackages.
func packageTimes(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
		// labels are (key, value) string indexes.
		labels [][2]int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals := appendPacked(nil, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1]) // cpu nanoseconds
					}
				case 3: // Label
					var kv [2]int64
					err := walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	byCat := make(map[string]int64, len(profPackages))
samples:
	for _, s := range samples {
		for _, kv := range s.labels {
			if str(kv[0]) == "role" && str(kv[1]) == "load" {
				continue samples
			}
		}
		cat := "other"
	stack:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if c, ok := category(str(funcNames[fid])); ok {
					cat = c
					break stack
				}
			}
		}
		byCat[cat] += s.value
	}
	return byCat, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2, b set) or as a single value (wire type 0).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// walkProto calls fn for each top-level field of a protobuf message:
// varint fields pass v, length-delimited fields pass b.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
