package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestPickTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantV  float64
		beyond int
	}{
		{1000, 99, 990, 10},
		{2000, 99.5, 1990, 10},
		{10000, 99.9, 9990, 10},
		{100, 90, 90, 10},
		{400, 95, 380, 20},
		{5, 50, 3, 2}, // too few for any tail: the median, flagged by Beyond
	} {
		got := pickTail(seq(tc.n), 99.9)
		if got.P != tc.wantP || got.Value != tc.wantV || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want p%v = %v with %d beyond", tc.n, got, tc.wantP, tc.wantV, tc.beyond)
		}
	}
	if got := pickTail(seq(10000), 99); got.P != 99 {
		t.Errorf("cap 99 ignored: picked p%v", got.P)
	}
	if got := pickTail(seq(1000), 50); got.P != 50 || got.Value != 500 {
		t.Errorf("median: got %+v", got)
	}
}

func TestVodInputsDeterministic(t *testing.T) {
	for _, spec := range []vodSpec{vodCohort, vodScattered} {
		a, b := genVodInputs(spec, 42), genVodInputs(spec, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same seed, different inputs")
		}
		if c := genVodInputs(spec, 43); reflect.DeepEqual(a.viewers, c.viewers) {
			t.Fatalf("different seeds, same viewers")
		}
		counts := make([]int, spec.clips)
		for _, v := range a.viewers {
			counts[v.clip]++
			if v.cueFrames < 0 || v.cueFrames >= spec.frames*3/4 && spec.scattered {
				t.Fatalf("cue %d outside the clip's first three quarters", v.cueFrames)
			}
			if !spec.scattered && v.cueFrames != 0 {
				t.Fatalf("cohort viewer cued to %d", v.cueFrames)
			}
		}
		if counts[0] <= counts[spec.clips-1] {
			t.Errorf("rank 1 drew %d viewers, rank %d drew %d: no popularity skew", counts[0], spec.clips, counts[spec.clips-1])
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		z := newZipfSampler(24, 1.1)
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, z.draw(rng), genCue(rng, 60), int(genPriority(rng)))
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Fatal("zipf/cue/priority draws differ for one seed")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Fatal("zipf/cue/priority draws equal for two seeds")
	}
	// A flat exponent still favours rank 1, and never leaves the range.
	rng := rand.New(rand.NewSource(1))
	z := newZipfSampler(10, 0)
	for i := 0; i < 1000; i++ {
		if k := z.draw(rng); k < 0 || k >= 10 {
			t.Fatalf("draw %d out of range", k)
		}
	}
	if a, b := genStudioInputs(3), genStudioInputs(3); !reflect.DeepEqual(a, b) {
		t.Fatal("studio inputs differ for one seed")
	}
}

func TestSearchCapacity(t *testing.T) {
	for knee := 90; knee <= 2100; knee += 37 {
		var probed []int
		ok := func(n int) (bool, error) {
			probed = append(probed, n)
			return n <= knee, nil
		}
		n, probes, found, saturated, err := searchCapacity(100, 2000, 25, ok)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case knee < 100:
			if found {
				t.Errorf("knee %d below range reported found", knee)
			}
		case knee >= 2000:
			if !saturated || n != 2000 {
				t.Errorf("knee %d: got %d saturated=%v", knee, n, saturated)
			}
		default:
			want := 100 + (knee-100)/25*25
			if !found || saturated || n != want {
				t.Errorf("knee %d: got %d (found %v saturated %v), want %d", knee, n, found, saturated, want)
			}
		}
		// 77 grid points: at most 2 end probes + ceil(log2 76) = 9.
		if probes > 9 || probes != len(probed) {
			t.Errorf("knee %d: %d probes (%d calls)", knee, probes, len(probed))
		}
		// The same answers give the same probe sequence.
		var again []int
		searchCapacity(100, 2000, 25, func(n int) (bool, error) {
			again = append(again, n)
			return n <= knee, nil
		})
		if !reflect.DeepEqual(probed, again) {
			t.Errorf("knee %d: probe order not deterministic: %v vs %v", knee, probed, again)
		}
	}
}

func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		cpu   string
		alloc string
	}{
		{[]string{"avdb/internal/storage.(*Stream).ReadChunkTimeAt", "avdb/internal/activities.(*VideoReader).Tick"}, "storage", "storage"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "avdb/internal/activity.NewTickContext", "avdb/internal/activity.(*GraphRun).Tick"}, "runtime", "activity"},
		{[]string{"runtime.memmove", "avdb/internal/codec.rleEncode", "avdb/internal/activities.(*VideoEncoder).Tick"}, "codec", "codec"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime", layerNone},
		{[]string{"sync.(*Mutex).Lock", "avdb/internal/core.(*Engine).stepOnce.func1"}, "core", "core"},
		{[]string{"avdb/internal/synth.(*Animation).Render", "main.(*studioWorkload).buildCamera.func1"}, "synth", "synth"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, layerNone, layerNone},
		{[]string{"main.(*heapSampler).run", "runtime.goexit"}, layerNone, layerNone},
	}
	for _, c := range cases {
		if got := attributeCPU(c.stack); got != c.cpu {
			t.Errorf("cpu %v: got %q, want %q", c.stack, got, c.cpu)
		}
		if got := attributeAlloc(c.stack); got != c.alloc {
			t.Errorf("alloc %v: got %q, want %q", c.stack, got, c.alloc)
		}
	}
	if !profilerOwn([]string{"compress/flate.NewWriter", "runtime/pprof.(*profileBuilder).build"}) {
		t.Error("pprof encoder allocation not recognised as the profiler's own")
	}
	if moduleOf("avdb/internal/obs.(*Tracer).Begin") != "obs" || moduleOf("avdb/perfbench.main") != "" {
		t.Error("moduleOf misreads package paths")
	}
}

func TestDecodeProfile(t *testing.T) {
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	stacks, weights, err := decodeProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("decoded %d stacks, %d weights", len(stacks), len(weights))
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			if strings.Contains(fn, "TestDecodeProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Error("the test's own allocation site is missing from the decoded stacks")
	}
	if _, _, err := decodeProfile(buf.Bytes(), "no-such-type"); err == nil {
		t.Error("unknown sample type decoded without error")
	}
	if _, _, err := decodeProfile([]byte("not a profile"), "cpu"); err == nil {
		t.Error("garbage decoded without error")
	}
	_ = sink
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "start", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "bind", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "bind", StartNs: 20, EndNs: 50, Parent: 0},
		{Name: "close", StartNs: 90, EndNs: 120, Parent: 0}, // overhangs its parent
	}
	got := map[string]spanSummary{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if s := got["start"]; s.Count != 1 || s.SelfMs != 50e-6 || s.TotalMs != 100e-6 {
		t.Errorf("start: %+v, want self 50ns of 100ns", s)
	}
	if s := got["bind"]; s.Count != 2 || s.SelfMs != 50e-6 {
		t.Errorf("bind: %+v", s)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, ""); id != -1 {
		t.Errorf("nil tracer recorded span %d", id)
	}
	nilTracer.end(-1)
}

func TestFramesClose(t *testing.T) {
	f := frames{attempted: 10, delivered: 6, missed: 2, lost: 1, refused: 1}
	if !f.closes() || f.missRate() != 0.4 {
		t.Errorf("%+v: closes=%v miss=%v", f, f.closes(), f.missRate())
	}
	f.delivered++
	if f.closes() {
		t.Error("an extra delivered frame still closes")
	}
}
