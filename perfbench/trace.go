package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"elink/internal/obs"
)

// tracer records a span around every call the benchmark makes into a
// layer (each call is one root trace, with the engine's and the query
// layer's own spans as children) and folds every finished trace into
// per-group, per-span-name totals. A nil *tracer records nothing.
type tracer struct {
	st *obs.SpanTracer
	// self and dur sum SelfNs and DurNs by "group/span name"; roots
	// counts the root spans of each group.
	self, dur map[string]int64
	roots     map[string]int
}

func newTracer() *tracer {
	return &tracer{
		st:    obs.NewSpanTracer(4, 1),
		self:  map[string]int64{},
		dur:   map[string]int64{},
		roots: map[string]int{},
	}
}

func (t *tracer) spanTracer() *obs.SpanTracer {
	if t == nil {
		return nil
	}
	return t.st
}

func (t *tracer) start(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.st.Start(name)
}

// end finishes root span sp and folds its trace into group.
func (t *tracer) end(sp *obs.Span, group string) {
	if t == nil {
		return
	}
	sp.Finish()
	tr := t.st.Recent(1)[0]
	t.roots[group]++
	for _, r := range tr.Spans {
		k := group + "/" + r.Name
		t.self[k] += r.SelfNs
		t.dur[k] += r.DurNs
	}
}

// selfSum is the summed self-time of every recorded span: the wall time
// the per-layer numbers account for.
func (t *tracer) selfSum() int64 {
	var s int64
	for _, v := range t.self {
		s += v
	}
	return s
}

// sumBySpan adds up m's values over every group for one span name.
func sumBySpan(m map[string]int64, name string) int64 {
	var s int64
	for k, v := range m {
		if strings.HasSuffix(k, "/"+name) {
			s += v
		}
	}
	return s
}

// cpuProfile is what the benchmark reads from a runtime/pprof CPU
// profile: CPU seconds by package of the innermost frame (self time),
// and CPU seconds of samples with a matching frame anywhere on the stack.
type cpuProfile struct {
	selfByPkg map[string]float64
	under     map[string]float64
}

// underFuncs names the functions whose cumulative CPU time is reported.
var underFuncs = map[string]func(fn string) bool{
	"eigen": func(fn string) bool {
		return strings.HasPrefix(fn, "elink/internal/linalg.Eigen") ||
			strings.HasPrefix(fn, "elink/internal/linalg.(*CSR).Eigen") ||
			strings.HasPrefix(fn, "elink/internal/linalg.(*SparseSym).Eigen")
	},
	"kmeans": func(fn string) bool { return fn == "elink/internal/linalg.KMeans" },
}

// parseCPUProfile decodes the gzipped profile.proto that
// pprof.StartCPUProfile writes. Only the fields the benchmark needs are
// read: samples (location ids, values), locations (lines), functions
// (names) and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
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
			err := eachField(b, func(f int, v uint64, _ []byte) error {
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
		return nil, err
	}
	name := func(fid uint64) string {
		if i := funcNames[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{selfByPkg: map[string]float64{}, under: map[string]float64{}}
	for _, s := range samples {
		if len(s.values) < 2 || len(s.locs) == 0 {
			continue
		}
		sec := float64(s.values[1]) / 1e9 // sample types: [samples/count, cpu/nanoseconds]
		if fns := locFuncs[s.locs[0]]; len(fns) > 0 {
			p.selfByPkg[pkgOf(name(fns[0]))] += sec
		}
		for key, match := range underFuncs {
			hit := false
			for _, l := range s.locs {
				for _, f := range locFuncs[l] {
					hit = hit || match(name(f))
				}
			}
			if hit {
				p.under[key] += sec
			}
		}
	}
	return p, nil
}

// pkgOf returns the import path of a pprof function name such as
// "elink/internal/sim.(*Network).Step".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field's values, packed (data) or
// not (v).
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
