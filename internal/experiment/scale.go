package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// The wavefront-scaling experiment: the same wide activity graph runs
// once per worker count, and every arm must reproduce the serial arm's
// RunStats and obs snapshot byte for byte — parallelism here buys wall
// time, never different answers.  The graph is width independent
// source→filter→sink lanes, so every dependency level is width
// activities wide and the executor has real concurrency to harvest.
//
// Wall-clock numbers are hardware-dependent and therefore excluded from
// the golden corpus; the determinism columns are what the test suite
// pins.

// scalePasses tunes the per-tick busy work so a lane's tick dominates
// executor overhead without making the experiment slow serially.
const scalePasses = 8

// scaleBurner is a source that synthesizes a frame per tick and runs a
// deterministic pixel transform over it — stand-in compute for decode.
type scaleBurner struct {
	*activity.Base
	frames, pos int
	state       uint32
}

func newScaleBurner(name string, frames int, seed uint32) *scaleBurner {
	s := &scaleBurner{
		Base:   activity.NewBase(name, "ScaleBurner", activity.AtDatabase),
		frames: frames, state: seed | 1,
	}
	s.AddPort("out", activity.Out, media.TypeRawVideo30)
	return s
}

func burn(f *media.Frame, state uint32, passes int) uint32 {
	x := state
	for p := 0; p < passes; p++ {
		for i := range f.Pix {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			f.Pix[i] += byte(x)
		}
	}
	return x
}

func (s *scaleBurner) Tick(tc *activity.TickContext) error {
	if s.pos >= s.frames {
		s.MarkDone()
		return nil
	}
	f := media.NewFrame(clipW, clipH, clipDepth)
	s.state = burn(f, s.state, scalePasses)
	tc.Emit("out", &activity.Chunk{Seq: s.pos, At: tc.Now, Arrived: tc.Now, Payload: f})
	s.pos++
	if s.pos >= s.frames {
		s.MarkDone()
	}
	return nil
}

// scaleFilter applies the same transform in place, giving the middle
// level of every lane real work too.
type scaleFilter struct {
	*activity.Base
	state uint32
}

func newScaleFilter(name string, seed uint32) *scaleFilter {
	f := &scaleFilter{Base: activity.NewBase(name, "ScaleFilter", activity.AtDatabase), state: seed | 1}
	f.AddPort("in", activity.In, media.TypeRawVideo30)
	f.AddPort("out", activity.Out, media.TypeRawVideo30)
	return f
}

func (f *scaleFilter) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	frame := in.Payload.(*media.Frame)
	f.state = burn(frame, f.state, scalePasses)
	out := *in
	tc.Emit("out", &out)
	return nil
}

// scaleSink counts and checksums what arrives so the arms can be
// compared on content, not just counts.
type scaleSink struct {
	*activity.Base
	n   int
	sum uint32
}

func newScaleSink(name string) *scaleSink {
	s := &scaleSink{Base: activity.NewBase(name, "ScaleSink", activity.AtApplication)}
	s.AddPort("in", activity.In, media.TypeRawVideo30)
	return s
}

func (s *scaleSink) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	f := in.Payload.(*media.Frame)
	x := s.sum | 1
	for i := range f.Pix {
		x ^= uint32(f.Pix[i]) + x<<7
	}
	s.sum = x
	s.n++
	return nil
}

// ScaleRun is one arm: the wide graph under one worker-count setting.
type ScaleRun struct {
	Workers   int           // pool lanes; 0 means GOMAXPROCS
	Wall      time.Duration // host wall-clock for the whole run
	Ticks     int
	Chunks    int64
	Virtual   avtime.WorldTime // virtual elapsed stream time
	Speedup   float64          // serial wall / this wall
	Identical bool             // RunStats, sink checksums and obs snapshot match serial
}

// ScaleResult is the sweep over worker counts.
type ScaleResult struct {
	Width   int // lanes, = width of every dependency level
	Frames  int // frames per lane
	MaxProc int // runtime.GOMAXPROCS on this host
	Runs    []ScaleRun
}

// scaleArm builds the wide graph and runs it once on a pool of the
// given lane count (0 = GOMAXPROCS), returning the run plus the
// evidence used for the determinism comparison.
func scaleArm(width, frames, workers int) (ScaleRun, *activity.RunStats, string, []uint32, error) {
	g := activity.NewGraph("scale")
	sinks := make([]*scaleSink, width)
	for i := 0; i < width; i++ {
		src := newScaleBurner(fmt.Sprintf("src%d", i), frames, uint32(i+1))
		fil := newScaleFilter(fmt.Sprintf("fil%d", i), uint32(i+101))
		sinks[i] = newScaleSink(fmt.Sprintf("sink%d", i))
		for _, a := range []activity.Activity{src, fil, sinks[i]} {
			if err := g.Add(a); err != nil {
				return ScaleRun{}, nil, "", nil, err
			}
		}
		if _, err := g.Connect(src, "out", fil, "in"); err != nil {
			return ScaleRun{}, nil, "", nil, err
		}
		if _, err := g.Connect(fil, "out", sinks[i], "in"); err != nil {
			return ScaleRun{}, nil, "", nil, err
		}
	}
	if err := g.Start(); err != nil {
		return ScaleRun{}, nil, "", nil, err
	}
	lanes := workers
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	pool := sched.NewPool(lanes)
	defer pool.Stop()
	col := obs.NewCollector()
	begin := time.Now()
	stats, err := g.Run(activity.RunConfig{
		Clock: sched.NewVirtualClock(0),
		Pool:  pool,
		Obs:   col,
	})
	wall := time.Since(begin)
	if err != nil {
		return ScaleRun{}, nil, "", nil, err
	}
	sums := make([]uint32, width)
	for i, s := range sinks {
		if s.n != frames {
			return ScaleRun{}, nil, "", nil, fmt.Errorf("experiment: lane %d delivered %d/%d frames", i, s.n, frames)
		}
		sums[i] = s.sum
	}
	run := ScaleRun{
		Workers: workers,
		Wall:    wall,
		Ticks:   stats.Ticks,
		Chunks:  stats.Chunks,
		Virtual: stats.Elapsed,
	}
	snap, err := col.Snapshot().JSON()
	if err != nil {
		return ScaleRun{}, nil, "", nil, err
	}
	return run, stats, snap, sums, nil
}

// Scale sweeps the wavefront executor over worker counts on a
// width-lane graph.  The first count is the baseline the others are
// compared against (pass 1 first for a serial baseline).
func Scale(width, frames int, workerCounts []int) (*ScaleResult, error) {
	if width < 1 || frames < 1 || len(workerCounts) == 0 {
		return nil, fmt.Errorf("experiment: scale needs width, frames and at least one worker count")
	}
	res := &ScaleResult{Width: width, Frames: frames, MaxProc: runtime.GOMAXPROCS(0)}
	var baseStats *activity.RunStats
	var baseSnap string
	var baseSums []uint32
	var baseWall time.Duration
	for i, w := range workerCounts {
		run, stats, snap, sums, err := scaleArm(width, frames, w)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseStats, baseSnap, baseSums, baseWall = stats, snap, sums, run.Wall
		}
		run.Identical = reflect.DeepEqual(stats, baseStats) &&
			snap == baseSnap && reflect.DeepEqual(sums, baseSums)
		if run.Wall > 0 {
			run.Speedup = float64(baseWall) / float64(run.Wall)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// String renders the sweep.
func (r *ScaleResult) String() string {
	header := []string{"workers", "wall", "speedup", "ticks", "chunks", "virtual", "identical"}
	rows := make([][]string, 0, len(r.Runs))
	for _, run := range r.Runs {
		w := fmt.Sprint(run.Workers)
		if run.Workers == 0 {
			w = fmt.Sprintf("0 (GOMAXPROCS=%d)", r.MaxProc)
		}
		ident := "no"
		if run.Identical {
			ident = "yes"
		}
		rows = append(rows, []string{
			w,
			run.Wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", run.Speedup),
			fmt.Sprint(run.Ticks),
			fmt.Sprint(run.Chunks),
			run.Virtual.String(),
			ident,
		})
	}
	s := fmt.Sprintf("Scale: wavefront execution, %d lanes x %d frames (host GOMAXPROCS=%d)\n", r.Width, r.Frames, r.MaxProc)
	s += "every arm must reproduce the serial arm byte for byte; wall time is the only permitted difference\n\n"
	s += table(header, rows)
	return s
}
