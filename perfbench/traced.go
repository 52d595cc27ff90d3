package main

import (
	"fmt"
	"time"
)

// cpuHz is the traced run's CPU sampling rate.
const cpuHz = 500

// layers are the avdb/internal modules that get their own cpu_share and
// alloc_share.  obs gets its shares from the obs-on playback; in the
// obs-off profiles it, and any module not listed, counts as
// internal_other, so the shares of one profile always sum to 1.
var layers = []string{
	"activities", "activity", "avtime", "codec", "core", "device", "media",
	"netsim", "query", "sched", "schema", "storage", "synth", "txn",
}

// runTraced is the traced run: rounds of an untraced playback, a
// playback under the CPU and allocation profilers with the
// benchmark's spans recorded, and an obs-on playback under its own
// profilers.  It reports per-layer metrics; end-to-end numbers come
// only from untraced runs.
func runTraced(name string, w workload, budget time.Duration, info *runInfo, out string) (*result, error) {
	host := arm{name: "host", workers: nproc()}
	obsArm := arm{name: "obs", workers: nproc(), obs: true}
	cpu, alloc := newCPUProfiler(cpuHz), newAllocProfiler()
	obsCPU, obsAlloc := newCPUProfiler(cpuHz), newAllocProfiler()
	hooks := &playHooks{before: alloc.start, start: cpu.start, stop: cpu.stop, after: alloc.stop}
	obsHooks := &playHooks{before: obsAlloc.start, start: obsCPU.start, stop: obsCPU.stop, after: obsAlloc.stop}
	tr := newTracer()

	// One set-up from nothing under the tracer records the synthesis
	// spans, which trials that reuse synthesized inputs do not make.
	if _, err := w.fullSetup(tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var untraced, traced []float64
	var first, obsFirst *trial
	t0 := time.Now()
	rounds := 0
	for rounds < 1 || (time.Since(t0) < budget && rounds < 20) {
		u, err := w.trial(w.offered(), host, nil, nil)
		if err != nil {
			return nil, err
		}
		// Spans come from the first traced playback only, which keeps
		// the span store bounded.
		var rtr *tracer
		if rounds == 0 {
			rtr = tr
		}
		t, err := w.trial(w.offered(), host, rtr, hooks)
		if err != nil {
			return nil, err
		}
		o, err := w.trial(w.offered(), obsArm, nil, obsHooks)
		if err != nil {
			return nil, err
		}
		for _, x := range []*trial{u, t, o} {
			if err := checkTrial(x, "traced round"); err != nil {
				return nil, err
			}
			if x.fp != u.fp {
				return nil, fmt.Errorf("traced round %d: fingerprints differ (%016x vs %016x)", rounds, x.fp, u.fp)
			}
			res.Attempted += x.starts
			res.Failed += x.failed
		}
		untraced = append(untraced, float64(u.playNs)/float64(u.sinkFrames))
		traced = append(traced, float64(t.playNs)/float64(t.sinkFrames))
		if first == nil {
			first, obsFirst = t, o
		}
		rounds++
	}
	for _, p := range []*cpuProfiler{cpu, obsCPU} {
		if p.err != nil {
			return nil, fmt.Errorf("cpu profile: %w", p.err)
		}
	}

	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	internalOther := func(s shares) float64 {
		v := s.total() - s[layerRuntime] - s[layerNone]
		for _, l := range layers {
			v -= s[l]
		}
		if t := s.total(); t > 0 {
			return v / t
		}
		return 0
	}
	for _, l := range layers {
		set(l+".cpu_share", cpu.samples.share(l), "ratio")
		set(l+".alloc_share", alloc.bytes.share(l), "ratio")
	}
	set("internal_other.cpu_share", internalOther(cpu.samples), "ratio")
	set("internal_other.alloc_share", internalOther(alloc.bytes), "ratio")
	set("unattributed.cpu_share", cpu.samples.share(layerNone), "ratio")
	set("unattributed.alloc_share", alloc.bytes.share(layerNone), "ratio")
	set("runtime.gc_cpu_share", cpu.samples.share(layerRuntime), "ratio")
	set("runtime.gc_cycles", float64(first.gcCycles), "count")
	set("profile.cpu_samples", cpu.samples.total(), "count")

	L := first.layers
	set("activity.chunks", float64(L.chunks), "count")
	set("activity.dropped", float64(L.dropped), "count")

	us := func(span string) []float64 { return tr.durations(span) }
	p50 := func(v []float64) float64 { return pickTail(v, 50).Value }
	p99 := func(v []float64) float64 { return pickTail(v, 99).Value }
	set("core.bind_us_p50", p50(us("core.bind")), "us")
	set("core.bind_us_p99", p99(us("core.bind")), "us")
	set("core.start_us_p50", p50(us("core.start")), "us")
	set("core.start_us_p99", p99(us("core.start")), "us")
	set("core.close_us_p50", p50(us("core.close")), "us")
	set("core.engine.steps", float64(L.engine.Steps), "count")
	set("core.engine.runs_per_step", ratio(float64(L.ticks), float64(L.engine.Steps)), "count")
	set("sched.admission.refused", float64(L.admitRefused), "count")
	set("sched.lateness_ms_p50", p50(L.latenessMs), "ms")
	set("sched.lateness_ms_p99", p99(L.latenessMs), "ms")

	pool := L.pool
	set("storage.pool.hit_rate", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "ratio")
	set("storage.pool.cohort_hit_rate", ratio(float64(L.cohortHits), float64(L.cohortReads)), "ratio")
	set("storage.pool.shared", float64(pool.Shared), "count")
	set("storage.pool.evicted_per_prefetched", ratio(float64(pool.Evicted), float64(pool.Prefetched)), "ratio")
	io := L.io
	set("storage.iosched.rounds", float64(io.Rounds), "count")
	set("storage.iosched.batch_mean", ratio(float64(io.Scheduled), float64(io.Batches)), "count")
	set("storage.iosched.max_batch", float64(io.MaxBatch), "count")
	set("storage.iosched.seeks_per_chunk", ratio(float64(io.SeeksCharged), float64(io.Scheduled+io.Demand)), "ratio")
	set("storage.iosched.seeks_saved", float64(io.SeeksSaved), "count")
	set("storage.iosched.rounds_overrun", float64(io.RoundsOverrun), "count")
	set("storage.iosched.deadline_misses", float64(io.DeadlineMisses), "count")
	set("storage.replica.failovers", float64(io.Failovers), "count")
	set("storage.place_ms_p50", p50(us("storage.place"))/1e3, "ms")

	set("netsim.bytes_per_frame", ratio(float64(L.netBytes), float64(first.sinkFrames)), "B")
	set("netsim.messages", float64(L.netMessages), "count")
	set("codec.compression_ratio", ratio(float64(L.rawBytes), float64(L.encodedBytes)), "ratio")
	set("synth.clip_ms_p50", p50(us("synth.clip"))/1e3, "ms")
	set("query.select_us_p50", p50(us("query.select")), "us")
	set("query.select_us_p99", p99(us("query.select")), "us")
	set("txn.setattr_us_p50", p50(us("txn.setattr")), "us")
	set("txn.setattr_us_p99", p99(us("txn.setattr")), "us")
	set("txn.newobject_us_p50", p50(us("txn.newobject")), "us")

	set("obs.spans", float64(obsFirst.layers.obsSpans), "count")
	set("obs.snapshot_ms", obsFirst.layers.obsSnapshotMs, "ms")
	set("obs.cpu_share", obsCPU.samples.share("obs"), "ratio")
	set("obs.alloc_share", obsAlloc.bytes.share("obs"), "ratio")

	set("trace.host_ns_per_session_frame", median(traced), "ns")
	set("trace.overhead_ns_per_session_frame", median(traced)-median(untraced), "ns")

	info.Details["rounds"] = rounds
	info.Details["cpu_hz"] = cpuHz
	path, err := outPath(out, name, info.Seed, "spans")
	if err != nil {
		return nil, err
	}
	if err := writeJSON(path, map[string]any{
		"run":        info,
		"self_times": selfTimes(tr.spans),
		"cpu":        cpu.samples,
		"alloc":      alloc.bytes,
		"obs_cpu":    obsCPU.samples,
		"obs_alloc":  obsAlloc.bytes,
		"spans":      tr.spans,
	}); err != nil {
		return nil, err
	}
	info.Details["spans_file"] = path
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
