package main

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// arm is one way of playing a workload's inputs: the worker count
// (Config.Workers and Config.EngineWorkers alike) and whether the
// observability collector is on.
type arm struct {
	name    string
	workers int
	obs     bool
}

// frames is the frame accounting of one playback.  Every frame a
// session was asked to present ends in exactly one of the four
// outcomes, so delivered+missed+lost+refused == attempted.
type frames struct {
	attempted int64 // frames the sessions were asked to present
	delivered int64 // presented within the deadline tolerance
	missed    int64 // presented later than the tolerance
	lost      int64 // never presented: dropped or abandoned to faults
	refused   int64 // belonged to a session that could not start
}

func (f *frames) add(o frames) {
	f.attempted += o.attempted
	f.delivered += o.delivered
	f.missed += o.missed
	f.lost += o.lost
	f.refused += o.refused
}

func (f frames) closes() bool {
	return f.delivered+f.missed+f.lost+f.refused == f.attempted
}

func (f frames) missRate() float64 {
	if f.attempted == 0 {
		return 0
	}
	return float64(f.missed+f.lost+f.refused) / float64(f.attempted)
}

// layerStats are the per-layer counters one playback reads off the
// layers' public stats after it finishes.
type layerStats struct {
	io            storage.IOStats
	pool          storage.PoolStats
	cohortHits    int64 // pool hits of sessions whose clip has company
	cohortReads   int64
	engine        core.EngineStats
	admitRefused  int64
	ticks         int64 // activity.RunStats.Ticks over all sessions
	chunks        int64 // activity.RunStats.Chunks over all sessions
	dropped       int64 // activity.RunStats.ChunksDropped over all sessions
	netBytes      int64 // bytes carried over network connections
	netMessages   int64
	latenessMs    []float64 // per presented frame, virtual
	encodedBytes  int64     // studio: encoded bytes produced
	rawBytes      int64     // studio: raw bytes encoded
	obsSpans      int
	obsSnapshotMs float64
}

// trial is one playback of a workload's inputs on a fresh platform.
type trial struct {
	startUs    []float64 // host time per successful session start
	starts     int       // session starts attempted
	failed     int       // session starts refused, shed or errored
	frames     frames
	sinkFrames int64 // session-frames: frames delivered to a sink
	playNs     int64 // host time of the playback phase
	mallocs    uint64
	allocBytes uint64
	peakHeap   uint64
	gcCycles   uint32
	fp         uint64 // outcome fingerprint; equal across arms
	layers     layerStats
}

// refusal reports whether a session-start error is the platform saying
// no — admission control, a bandwidth reservation or load shedding —
// rather than a fault in the program.
func refusal(err error) bool {
	return errors.Is(err, sched.ErrAdmission) || errors.Is(err, device.ErrBandwidth) ||
		errors.Is(err, netsim.ErrBandwidth) || errors.Is(err, core.ErrOverloaded)
}

// heapSampler polls the live heap on its own goroutine and keeps the
// peak.  stop ends the goroutine and waits for it.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// playMeter brackets a playback phase: allocations, GC cycles, peak
// heap and host time between start and stop.
type playMeter struct {
	ms0     runtime.MemStats
	sampler *heapSampler
	t0      time.Time
}

func startPlay() *playMeter {
	runtime.GC()
	m := &playMeter{}
	runtime.ReadMemStats(&m.ms0)
	m.sampler = startHeapSampler()
	m.t0 = time.Now()
	return m
}

func (m *playMeter) stop(t *trial) {
	t.playNs = time.Since(m.t0).Nanoseconds()
	t.peakHeap = m.sampler.stop()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	t.mallocs = ms1.Mallocs - m.ms0.Mallocs
	t.allocBytes = ms1.TotalAlloc - m.ms0.TotalAlloc
	t.gcCycles = ms1.NumGC - m.ms0.NumGC
}

// fingerprint folds outcome integers into an FNV-64a hash.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) add(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], uint64(v))
		f.h.Write(f.buf[:])
	}
}

func (f *fingerprint) addIO(io storage.IOStats) {
	f.add(io.Rounds, io.Batches, io.Scheduled, io.Demand, io.SeeksCharged, io.SeeksSaved,
		io.DeadlineMisses, io.RoundsOverrun, io.Failovers, int64(io.MaxBatch))
}

func (f *fingerprint) addPool(p storage.PoolStats) {
	f.add(p.Hits, p.Misses, p.Shared, p.Prefetched, p.Evicted, int64(p.Resident))
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }

func isAdmission(err error) bool { return errors.Is(err, sched.ErrAdmission) }

// playHooks bracket a trial's playback phase; the traced run uses
// them to profile playback alone.  before and after run outside the
// timed window (they may force a GC), start and stop just inside it.
// A nil *playHooks, or a nil field, does nothing.
type playHooks struct {
	before, start, stop, after func()
}

func do(f func()) {
	if f != nil {
		f()
	}
}

// beginPlay opens the playback window: hooks, then the meter.
func beginPlay(h *playHooks) *playMeter {
	if h == nil {
		h = &playHooks{}
	}
	do(h.before)
	m := startPlay()
	do(h.start)
	return m
}

// endPlay closes the window opened by beginPlay and records it into t.
func endPlay(h *playHooks, m *playMeter, t *trial) {
	if h == nil {
		h = &playHooks{}
	}
	do(h.stop)
	m.stop(t)
	do(h.after)
}

// enableObs turns the collector on for obs arms, before any session
// connects, and returns it (nil for other arms).
func enableObs(db *core.Database, a arm) *obs.Collector {
	if !a.obs {
		return nil
	}
	return db.EnableObservability()
}

// snapshotObs times one snapshot of the collector and counts its
// spans.
func snapshotObs(col *obs.Collector, t *trial, tr *tracer, parent int) {
	if col == nil {
		return
	}
	sp := tr.begin("obs.snapshot", parent, "")
	t0 := time.Now()
	snap := col.Snapshot()
	t.layers.obsSnapshotMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(sp)
	t.layers.obsSpans = len(snap.Spans)
}
