// Command perfbench is avdb's end-to-end benchmark.  It plays one of
// three workloads through the real stack — core.Database sessions
// built from real activities, stepped by core.Engine, reading through
// storage and device, delivering over netsim — checks the outcome, and
// prints every metric by name and unit.  The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports per-layer numbers instead.  Run it with
// perfbench/run.sh from the repository root; MAPPING.md says what each
// metric covers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the workload seed when none is given; BENCHMARK.json
// records it.
const defaultSeed = 1

// missLimit is the frame miss rate the capacity search holds to.
const missLimit = 0.01

// workload is one benchmark workload over generated inputs.
type workload interface {
	// offered is the session count of the measured playbacks.
	offered() int
	// capacityGrid is the capacity search's range and step.
	capacityGrid() (lo, hi, step int)
	// fullSetup times one set-up of the offered load's platform from
	// nothing, every input synthesized anew, and discards it.
	fullSetup(tr *tracer) (time.Duration, error)
	// trial builds a fresh platform and plays n sessions once.
	trial(n int, a arm, tr *tracer, hooks *playHooks) (*trial, error)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "vod-cohort":
		return newVodWorkload(vodCohort, seed), nil
	case "vod-scattered":
		return newVodWorkload(vodScattered, seed), nil
	case "studio":
		return newStudioWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want vod-cohort, vod-scattered or studio)", name)
}

func nproc() int { return runtime.NumCPU() }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed before the result: the host facts, the inputs and
// what the tail percentiles rest on.
type runInfo struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Seconds    int            `json:"run_seconds"`
	Details    map[string]any `json:"details"`
}

func main() {
	name := flag.String("workload", "vod-cohort", "workload: vod-cohort, vod-scattered or studio")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every random input derives from it")
	seconds := flag.Int("seconds", 50, "how long the measured phase runs")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := flag.String("out", ".bench_build", "directory for the traced run's span and profile summaries")
	flag.Parse()

	if *traceFlag == 1 {
		// Finer allocation sampling for the per-layer alloc shares.
		runtime.MemProfileRate = 16 << 10
	}
	runtime.GOMAXPROCS(nproc())
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fail(err)
	}
	info := runInfo{
		Workload: *name, Seed: *seed, Trace: *traceFlag == 1,
		Nproc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seconds: *seconds, Details: map[string]any{},
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *traceFlag == 1 {
		res, err = runTraced(*name, w, budget, &info, *out)
	} else {
		res, err = runEndToEnd(w, budget, &info)
	}
	if err != nil {
		fail(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	infoLine, err := json.Marshal(map[string]any{"run": info})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(infoLine))
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// checkTrial applies the per-trial correctness gate.
func checkTrial(t *trial, what string) error {
	if !t.frames.closes() {
		f := t.frames
		return fmt.Errorf("%s: frame accounting does not close: %d delivered + %d missed + %d lost + %d refused != %d attempted",
			what, f.delivered, f.missed, f.lost, f.refused, f.attempted)
	}
	return nil
}

// findCapacity searches the largest session count the fixed platform
// plays at no more than missLimit frame misses.  Probes are not timed.
func findCapacity(w workload, info *runInfo) (int, error) {
	lo, hi, step := w.capacityGrid()
	t0 := time.Now()
	defer func() { info.Details["capacity_search_s"] = time.Since(t0).Seconds() }()
	probe := arm{name: "probe", workers: nproc()}
	n, probes, found, saturated, err := searchCapacity(lo, hi, step, func(n int) (bool, error) {
		t, err := w.trial(n, probe, nil, nil)
		if err != nil {
			return false, fmt.Errorf("capacity probe %d: %w", n, err)
		}
		if err := checkTrial(t, fmt.Sprintf("capacity probe %d", n)); err != nil {
			return false, err
		}
		return t.frames.missRate() <= missLimit, nil
	})
	if err != nil {
		return 0, err
	}
	info.Details["capacity_probes"] = probes
	info.Details["capacity_range"] = []int{lo, hi, step}
	if !found {
		return 0, fmt.Errorf("capacity: even %d sessions miss more than %.0f%% of frames", lo, 100*missLimit)
	}
	if saturated {
		fmt.Fprintf(os.Stderr, "perfbench: capacity search saturated at its upper bound %d\n", hi)
		info.Details["capacity_saturated"] = true
	}
	return n, nil
}

// armSamples collects one arm's per-trial figures across rounds.
type armSamples struct {
	nsPerSF, allocsPerSF, bytesPerSF, peakMB []float64
}

func (s *armSamples) add(t *trial) {
	sf := float64(t.sinkFrames)
	s.nsPerSF = append(s.nsPerSF, float64(t.playNs)/sf)
	s.allocsPerSF = append(s.allocsPerSF, float64(t.mallocs)/sf)
	s.bytesPerSF = append(s.bytesPerSF, float64(t.allocBytes)/sf)
	s.peakMB = append(s.peakMB, float64(t.peakHeap)/(1<<20))
}

// runEndToEnd is the untraced run: the capacity search, then rounds of
// the three arms — nproc workers, one worker, nproc workers with
// observability — until the time budget is spent.  Every trial must
// close its frame accounting and match the first trial's fingerprint.
func runEndToEnd(w workload, budget time.Duration, info *runInfo) (*result, error) {
	capacity, err := findCapacity(w, info)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	// Session-start percentiles are taken per batch of at least a
	// thousand starts (one vod playback, or one studio start storm) and
	// reported as the median over batches, which keeps one stalled
	// batch from moving the tail.
	var startP50, startTail []float64
	var tail Percentile
	addStarts := func(samples []float64) {
		tail = pickTail(samples, 99)
		startP50 = append(startP50, pickTail(samples, 50).Value)
		startTail = append(startTail, tail.Value)
	}
	arms := []arm{
		{name: "host", workers: nproc()},
		{name: "serial", workers: 1},
		{name: "obs", workers: nproc(), obs: true},
	}
	samples := make([]armSamples, len(arms))
	var setups []float64
	var ref *trial
	t0 := time.Now()
	rounds := 0
	storms := 0
	for rounds < 3 || (time.Since(t0) < budget && rounds < 200) {
		// One full set-up per round spreads the setup_s samples over the
		// whole run, as the playbacks' are.
		d, err := w.fullSetup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		// Two studio sessions per playback are too few starts for a
		// tail; start storms, two per round, supply the batches.
		for sw, ok := w.(*studioWorkload); ok && storms < min(studioStorms, 2*(rounds+1)); storms++ {
			batch, attempted, err := sw.startStorm(studioStarts, nil)
			if err != nil {
				return nil, err
			}
			addStarts(batch)
			res.Attempted += attempted
		}
		for i, a := range arms {
			t, err := w.trial(w.offered(), a, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s trial: %w", a.name, err)
			}
			what := fmt.Sprintf("%s round %d", a.name, rounds)
			if err := checkTrial(t, what); err != nil {
				return nil, err
			}
			if ref == nil {
				ref = t
			} else if t.fp != ref.fp {
				return nil, fmt.Errorf("%s: outcome fingerprint %016x differs from the first host playback's %016x", what, t.fp, ref.fp)
			}
			samples[i].add(t)
			res.Attempted += t.starts
			res.Failed += t.failed
			if _, studio := w.(*studioWorkload); !a.obs && !studio {
				addStarts(t.startUs)
			}
		}
		rounds++
	}
	host, serial, obsArm := samples[0], samples[1], samples[2]
	info.Details["rounds"] = rounds
	info.Details["host_ns_per_trial"] = host.nsPerSF
	info.Details["serial_ns_per_trial"] = serial.nsPerSF
	info.Details["obs_ns_per_trial"] = obsArm.nsPerSF
	info.Details["setup_s_per_round"] = setups
	// The start-time tail is printed here rather than as a metric: on a
	// shared 2-CPU host it swings with neighbour load by more than any
	// bound a regression gate can use.
	info.Details["session_start_us_p99"] = median(startTail)
	info.Details["session_start_us_p99_per_batch"] = startTail
	info.Details["session_start_samples_per_batch"] = tail.Samples
	info.Details["session_start_tail_percentile"] = tail.P
	info.Details["session_start_beyond_tail"] = tail.Beyond
	info.Details["frames_attempted_per_playback"] = ref.frames.attempted
	info.Details["session_frames_per_playback"] = ref.sinkFrames
	info.Details["frame_miss_rate"] = ref.frames.missRate()
	info.Details["fingerprint"] = fmt.Sprintf("%016x", ref.fp)

	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["host_ns_per_session_frame"] = metric{median(host.nsPerSF), "ns"}
	m["serial_ns_per_session_frame"] = metric{median(serial.nsPerSF), "ns"}
	m["obs_ns_per_session_frame"] = metric{median(obsArm.nsPerSF), "ns"}
	m["allocs_per_session_frame"] = metric{median(append(host.allocsPerSF, serial.allocsPerSF...)), "count"}
	m["bytes_per_session_frame"] = metric{median(append(host.bytesPerSF, serial.bytesPerSF...)), "B"}
	m["peak_heap_mb"] = metric{median(host.peakMB), "MB"}
	m["obs_peak_heap_mb"] = metric{median(obsArm.peakMB), "MB"}
	// The virtual miss rate is 0 on a healthy platform, so the gate
	// reports its complement, which is never 0; the miss rate itself
	// goes out with the run details.
	m["frame_on_time_rate"] = metric{1 - ref.frames.missRate(), "ratio"}
	m["capacity_sessions"] = metric{float64(capacity), "sessions"}
	m["session_start_us_p50"] = metric{median(startP50), "us"}
	return res, nil
}

// outPath returns a file path under dir for this run's artifacts.
func outPath(dir, name string, seed int64, kind string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.%s.json", name, seed, kind)), nil
}
