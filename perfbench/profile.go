package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Host CPU and allocations are attributed to layers from profiles the
// benchmark takes of itself over the playback phase.  A sample belongs
// to the innermost avdb/internal/<module> frame on its stack; garbage
// collection and allocator frames reached first belong to "runtime";
// a stack with neither is "unattributed".
const (
	internalPrefix = "avdb/internal/"
	layerRuntime   = "runtime"
	layerNone      = "unattributed"
)

// gcFrames are the runtime functions whose samples are memory
// management: the allocator and the collector's workers.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.scanobject", "runtime.greyobject",
	"runtime.markroot", "runtime.scanblock", "runtime.scanstack", "runtime.bgsweep",
	"runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*gcWork)", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.bgscavenge", "runtime.(*sweepLocked)", "runtime.findObject",
	"runtime.memclrNoHeapPointers",
}

// moduleOf returns the avdb/internal module a function belongs to, or
// "" for functions outside it.  Function names look like
// avdb/internal/storage.(*Stream).ReadChunkTimeAt.func1.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isGC(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attributeCPU maps a CPU sample's stack, innermost frame first, to a
// layer.
func attributeCPU(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return layerRuntime
		}
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return layerNone
}

// profilerOwn reports whether an allocation was made by the profilers
// themselves (profile buffers, the pprof encoder), which the alloc
// shares leave out.
func profilerOwn(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime/pprof.") || strings.HasPrefix(fn, "runtime.SetCPUProfileRate") ||
			strings.HasPrefix(fn, "main.memRecords") {
			return true
		}
	}
	return false
}

// attributeAlloc maps an allocation's stack, innermost frame first, to
// the innermost avdb/internal module that asked for the memory.
func attributeAlloc(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return layerNone
}

// shares accumulates weights per layer.
type shares map[string]float64

func (s shares) total() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// share returns layer's fraction of the total, 0 for an empty set.
func (s shares) share(layer string) float64 {
	t := s.total()
	if t == 0 {
		return 0
	}
	return s[layer] / t
}

// cpuProfiler samples CPU over bracketed phases and keeps the
// per-layer sample counts.
type cpuProfiler struct {
	hz      int
	buf     bytes.Buffer
	samples shares
	err     error
}

func newCPUProfiler(hz int) *cpuProfiler { return &cpuProfiler{hz: hz, samples: shares{}} }

func (p *cpuProfiler) start() {
	p.buf.Reset()
	// A rate set before StartCPUProfile wins over its default 100 Hz;
	// the runtime notes the override on standard error.
	runtime.SetCPUProfileRate(p.hz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *cpuProfiler) stop() {
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(p.buf.Bytes(), "samples")
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	for i, st := range stacks {
		p.samples[attributeCPU(st)] += float64(weights[i])
	}
}

// allocProfiler attributes the bytes allocated between start and stop
// from the runtime's memory profile, which both ends flush with a GC.
type allocProfiler struct {
	before map[[32]uintptr]int64
	bytes  shares
}

func newAllocProfiler() *allocProfiler {
	return &allocProfiler{bytes: shares{}}
}

func memRecords() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

func (p *allocProfiler) start() { p.before = memRecords() }

func (p *allocProfiler) stop() {
	for stk, b := range memRecords() {
		if d := b - p.before[stk]; d > 0 {
			if st := p.symbolize(stk); !profilerOwn(st) {
				p.bytes[attributeAlloc(st)] += float64(d)
			}
		}
	}
}

// symbolize expands a recorded stack into function names, innermost
// first, inlined frames included.
func (p *allocProfiler) symbolize(stk [32]uintptr) []string {
	var pcs []uintptr
	for _, pc := range stk {
		if pc == 0 {
			break
		}
		pcs = append(pcs, pc)
	}
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			break
		}
	}
	return out
}

// decodeProfile reads a gzipped profile.proto as written by
// runtime/pprof and returns each sample's stack (function names,
// innermost first) with the value of the named sample type ("samples"
// or "cpu" for CPU profiles).  The standard library writes profiles but has no
// reader, so this decodes the few fields attribution needs.
func decodeProfile(data []byte, valueType string) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		types     [][2]int64 // (type, unit) string indexes
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := -1
	for i, t := range types {
		if str(t[0]) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]int64, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st = append(st, str(funcNames[f]))
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.values[vi])
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated message")

// walkFields calls fn for every field of a protobuf message: varint
// fields carry v, length-delimited fields carry b.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed handles a repeated varint field in either encoding.
func packed(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
