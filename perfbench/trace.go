package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Parent is the index+1 of the enclosing span
// (0 for a root), so a span's children and self time are recoverable
// from the list alone.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run, so recording costs one append and two clock reads.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// total returns the summed duration in seconds of the spans named name.
func (t *tracer) total(name string) float64 { return sum(t.durations(name)) }

// selfTimes returns each span name's total duration minus the part its
// direct children cover, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start).Seconds()
		self[s.Name] += d
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= d
		}
	}
	return self
}

// spanCost returns the seconds one begin/end pair costs, timed over
// many pairs on a scratch tracer.
func spanCost() float64 {
	const n = 1 << 16
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", 0))
	}
	return time.Since(start).Seconds() / n
}

// write stores the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{t.spans, t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuProfile accumulates flat CPU samples per package over the calls
// it profiles.
type cpuProfile struct {
	samples map[string]float64 // package → sample value
	total   float64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{samples: make(map[string]float64)} }

// run calls fn under the CPU profiler and adds its samples.
func (p *cpuProfile) run(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return p.add(&buf)
}

// shares returns each package's share of the samples (flat share).
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(p.samples))
	for k, v := range p.samples {
		out[k] = ratio(v, p.total)
	}
	return out
}

// layerShares folds package shares into the benchmark's layer names:
// repro/internal/<x> becomes x, and the Go runtime's packages become
// runtime.
func layerShares(pkg map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for p, s := range pkg {
		switch {
		case strings.HasPrefix(p, "repro/internal/"):
			out[strings.TrimPrefix(p, "repro/internal/")] += s
		case p == "runtime" || strings.HasPrefix(p, "runtime/") || strings.HasPrefix(p, "internal/runtime/"):
			out["runtime"] += s
		}
	}
	return out
}

// add decodes a gzipped pprof profile and attributes each sample's
// last value to the package of its leaf function. It reads only the
// fields it needs (samples, locations, functions, strings) of the
// profile.proto wire format.
func (p *cpuProfile) add(r io.Reader) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples []sample
		locFn   = make(map[uint64]uint64) // location id → leaf function id
		fnName  = make(map[uint64]int64)  // function id → string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var locs []uint64
			var vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = pbRepeated(locs, v, b)
				case 2:
					vals = pbRepeated(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.loc, s.value = locs[0], int64(vals[len(vals)-1])
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			seen := false
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: the first is the innermost inlined function
					if !seen {
						seen = true
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		p.total += float64(s.value)
		i := fnName[locFn[s.loc]]
		if i >= 0 && int(i) < len(strs) {
			p.samples[funcPackage(strs[i])] += float64(s.value)
		}
	}
	return nil
}

// funcPackage returns the import path of a Go symbol name such as
// "repro/internal/cache.(*Cache).Access".
func funcPackage(sym string) string {
	dir, base := "", sym
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		dir, base = sym[:i+1], sym[i+1:]
	}
	if i := strings.Index(base, "."); i >= 0 {
		base = base[:i]
	}
	return dir + base
}

// pbRepeated appends a repeated scalar field that may arrive packed
// (b != nil) or as one varint (v).
func pbRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbVarint decodes one base-128 varint, returning 0 bytes read on
// malformed input.
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
