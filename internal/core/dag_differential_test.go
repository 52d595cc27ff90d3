package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// The random-DAG differential is the safety net for the one tick pool:
// seeded DAGs of widths 1–8 with fan-in, fan-out and two-port outputs
// run through Graph.Run with no pool and on pools of 2 and 4 lanes, and
// as co-admitted sessions stepped by the engine at EngineWorkers 1, 2
// and 4.  Every arm of one runner must reproduce its first arm's RunStats and
// obs snapshot bytes, and a lone session under the engine must
// reproduce Graph.Run's RunStats.

// dagElem is a random-DAG payload: a running hash of everything
// upstream, so a reordered or dropped input changes every value after
// it.
type dagElem struct{ v uint64 }

func (e dagElem) ElementKind() media.Kind { return media.KindVideo }
func (e dagElem) Size() int64             { return 16 + int64(e.v%48) }

// dagNode is a source (no inputs: emits frames then finishes), a
// transformer, or a sink (no output port), with a seeded latency model.
// A node with two or more successors has two out ports, "out" and
// "out1", and emits a different value on each, so a chunk published on
// the wrong port changes every value downstream of it.
type dagNode struct {
	*activity.Base
	ins    []string
	outs   []string
	frames int
	pos    int
	acc    uint64
}

// emit publishes one chunk per out port; port k carries the running hash
// offset by k.
func (n *dagNode) emit(tc *activity.TickContext, seq int, arrived avtime.WorldTime) {
	for k, port := range n.outs {
		tc.Emit(port, &activity.Chunk{Seq: seq, At: tc.Now, Arrived: arrived, Payload: dagElem{n.acc + uint64(k)*0x9e3779b97f4a7c15}})
	}
}

func (n *dagNode) Tick(tc *activity.TickContext) error {
	if len(n.ins) == 0 {
		if n.pos >= n.frames {
			n.MarkDone()
			return nil
		}
		n.acc = n.acc*6364136223846793005 + uint64(n.pos) + 1
		n.emit(tc, n.pos, tc.Now)
		n.pos++
		if n.pos >= n.frames {
			n.MarkDone()
		}
		return nil
	}
	var got []*activity.Chunk
	for _, port := range n.ins {
		if in := tc.In(port); in != nil {
			n.acc = n.acc*31 + in.Payload.(dagElem).v
			got = append(got, in)
		}
	}
	if len(got) > 0 {
		n.emit(tc, got[0].Seq, activity.MaxArrival(got...))
	}
	return nil
}

// dagSpec is a generated DAG: nodes in level order, each with the
// indices of its predecessors.
type dagSpec struct {
	preds   [][]int
	succs   []int // successor count per node
	frames  []int
	latency []int64 // base latency, µs
	jitter  []int64
}

// genDAG draws 2–5 levels of width 1–8; every non-source node takes
// 1–3 distinct predecessors, one from the level directly above (so its
// level is fixed) and the rest from any earlier level.
func genDAG(rng *rand.Rand) dagSpec {
	var spec dagSpec
	var prevStart, prevEnd int
	levels := 2 + rng.Intn(4)
	for l := 0; l < levels; l++ {
		start := len(spec.preds)
		width := 1 + rng.Intn(8)
		for i := 0; i < width; i++ {
			var preds []int
			if l > 0 {
				preds = append(preds, prevStart+rng.Intn(prevEnd-prevStart))
				for k := rng.Intn(3); k > 0; k-- {
					p := rng.Intn(start)
					dup := false
					for _, q := range preds {
						dup = dup || q == p
					}
					if !dup {
						preds = append(preds, p)
					}
				}
			}
			spec.preds = append(spec.preds, preds)
			spec.frames = append(spec.frames, 3+rng.Intn(10))
			spec.latency = append(spec.latency, int64(rng.Intn(20_000)))
			spec.jitter = append(spec.jitter, int64(rng.Intn(8_000)))
		}
		prevStart, prevEnd = start, len(spec.preds)
	}
	spec.succs = make([]int, len(spec.preds))
	for _, preds := range spec.preds {
		for _, p := range preds {
			spec.succs[p]++
		}
	}
	return spec
}

// build instantiates fresh nodes for the spec and wires them through
// the given add and connect functions.  A node's successors take its out
// ports in turn.
func (spec dagSpec) build(seed int64, add func(activity.Activity) error,
	connect func(from activity.Activity, outPort string, to activity.Activity, inPort string) error) error {
	nodes := make([]*dagNode, len(spec.preds))
	for i, preds := range spec.preds {
		n := &dagNode{Base: activity.NewBase(fmt.Sprintf("n%d", i), "DAGNode", activity.AtDatabase), frames: spec.frames[i]}
		for k := range preds {
			n.ins = append(n.ins, fmt.Sprintf("in%d", k))
			n.AddPort(n.ins[k], activity.In, media.TypeRawVideo30)
		}
		if len(preds) == 0 || spec.succs[i] > 0 {
			n.outs = append(n.outs, "out")
		}
		if spec.succs[i] >= 2 {
			n.outs = append(n.outs, "out1")
		}
		for _, port := range n.outs {
			n.AddPort(port, activity.Out, media.TypeRawVideo30)
		}
		n.SetLatency(sched.NewLatency(avtime.WorldTime(spec.latency[i])*avtime.Microsecond,
			avtime.WorldTime(spec.jitter[i])*avtime.Microsecond, seed+int64(i)))
		if err := add(n); err != nil {
			return err
		}
		nodes[i] = n
	}
	used := make([]int, len(nodes))
	for i, preds := range spec.preds {
		for k, p := range preds {
			from := nodes[p]
			if err := connect(from, from.outs[used[p]%len(from.outs)], nodes[i], nodes[i].ins[k]); err != nil {
				return err
			}
			used[p]++
		}
	}
	return nil
}

// runDAGGraph runs one spec through Graph.Run on a pool of the given
// lanes (0 = no pool).
func runDAGGraph(t testing.TB, spec dagSpec, seed int64, lanes int) (*activity.RunStats, string) {
	t.Helper()
	g := activity.NewGraph("dag")
	err := spec.build(seed, g.Add, func(from activity.Activity, outPort string, to activity.Activity, inPort string) error {
		_, err := g.Connect(from, outPort, to, inPort)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	var pool *sched.Pool
	if lanes > 0 {
		pool = sched.NewPool(lanes)
		defer pool.Stop()
	}
	col := obs.NewCollector()
	stats, err := g.Run(activity.RunConfig{Clock: sched.NewVirtualClock(0), Pool: pool, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	js, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stats, js
}

// runDAGEngine co-admits one session per spec and steps them on the
// engine at the given worker count.
func runDAGEngine(t testing.TB, specs []dagSpec, seed int64, workers int) ([]*activity.RunStats, string) {
	t.Helper()
	db := testDB(t)
	col := db.EnableObservability()
	db.Engine().SetWorkers(workers)
	var sessions []*Session
	for j, spec := range specs {
		sess, err := db.Connect(fmt.Sprintf("dag-%d", j), "lan0")
		if err != nil {
			t.Fatal(err)
		}
		err = spec.build(seed+int64(100*j), func(a activity.Activity) error {
			return sess.Install(a, sched.Resources{})
		}, func(from activity.Activity, outPort string, to activity.Activity, inPort string) error {
			_, err := sess.Connect(from, outPort, to, inPort, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	db.Engine().Pause()
	var pbs []*Playback
	for _, sess := range sessions {
		pb, err := sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}
	db.Engine().Resume()
	var all []*activity.RunStats
	for _, pb := range pbs {
		stats, err := pb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stats)
	}
	for _, sess := range sessions {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	js, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return all, js
}

// checkDAGLanes runs the full differential for one seed.
func checkDAGLanes(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]dagSpec, 1+rng.Intn(3))
	for j := range specs {
		specs[j] = genDAG(rng)
	}

	engBase, engSnap := runDAGEngine(t, specs, seed, 1)
	for _, workers := range []int{2, 4} {
		stats, snap := runDAGEngine(t, specs, seed, workers)
		if !reflect.DeepEqual(engBase, stats) {
			t.Errorf("seed %d: engine RunStats at EngineWorkers=%d diverged", seed, workers)
		}
		if snap != engSnap {
			t.Errorf("seed %d: engine obs snapshot at EngineWorkers=%d differs (%d vs %d bytes)", seed, workers, len(snap), len(engSnap))
		}
	}

	for j, spec := range specs {
		base, baseSnap := runDAGGraph(t, spec, seed+int64(100*j), 0)
		for _, lanes := range []int{2, 4} {
			stats, snap := runDAGGraph(t, spec, seed+int64(100*j), lanes)
			if !reflect.DeepEqual(base, stats) {
				t.Errorf("seed %d dag %d: Graph.Run RunStats on %d lanes diverged:\nserial %+v\npooled %+v", seed, j, lanes, base, stats)
			}
			if snap != baseSnap {
				t.Errorf("seed %d dag %d: Graph.Run obs snapshot on %d lanes differs", seed, j, lanes)
			}
		}
		if len(specs) == 1 && !reflect.DeepEqual(base, engBase[0]) {
			t.Errorf("seed %d: lone engine session diverged from Graph.Run:\nrun    %+v\nengine %+v", seed, base, engBase[0])
		}
	}
}

func TestGraphRunLanesRandomDAG(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		checkDAGLanes(t, seed)
	}
}

func FuzzGraphRunLanes(f *testing.F) {
	for _, seed := range []int64{0, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(checkDAGLanes)
}
