package activity

// executor.go holds the parallel wavefront machinery behind Graph.Run:
// partitioning the topological order into dependency levels whose
// activities tick concurrently on the run's sched.Pool.
//
// The paper frames an AV database as a locus of *concurrent* activities
// (§3.1, §4.4); the wavefront executor realizes that without giving up
// the discrete-event determinism the rest of the system leans on.  Each
// scheduling interval runs level by level in three phases:
//
//	A (serial)   deliver chunks across connections, account faults,
//	             emit chunk spans, stage every node's tick inputs;
//	B (parallel) Tick the staged nodes and draw their latency samples
//	             on the pool, one item per node;
//	C (serial)   surface the first error in topological order, stamp
//	             latency onto outputs, publish produced chunks.
//
// Everything order-sensitive — span IDs, metric updates, fault-plan RNG
// draws on links, stats accumulation — happens in the serial phases in
// exactly the order the serial executor used, so a run on a pool of any
// size is byte-identical to a run with no pool.

import (
	"avdb/internal/avtime"
)

// levelize partitions a topological order into dependency levels:
// sources sit at level 0 and every other node one past its deepest
// predecessor.  Nodes within a level share no path and may tick
// concurrently.  Levels preserve the relative order of `order`; because
// topo()'s FIFO Kahn sort dequeues whole frontiers before any of their
// successors, concatenating the levels reproduces `order` exactly, which
// is what keeps parallel runs byte-identical to serial ones.
func levelize(order []Activity, incoming map[string][]*Connection) [][]Activity {
	depth := make(map[string]int, len(order))
	deepest := 0
	for _, node := range order {
		d := 0
		for _, c := range incoming[node.Name()] {
			if pd := depth[c.from.Name()] + 1; pd > d {
				d = pd
			}
		}
		depth[node.Name()] = d
		if d > deepest {
			deepest = d
		}
	}
	levels := make([][]Activity, deepest+1)
	for _, node := range order {
		d := depth[node.Name()]
		levels[d] = append(levels[d], node)
	}
	return levels
}

// maxWidth reports the widest level — the graph's available parallelism.
func maxWidth(levels [][]Activity) int {
	w := 0
	for _, l := range levels {
		if len(l) > w {
			w = len(l)
		}
	}
	return w
}

// tickEntry is one activity's unit of work for the current level: built
// in phase A, executed (possibly concurrently) in phase B, merged in
// phase C.  Entries live in a slice reused across ticks, and tc is the
// node's own reused context, so staging a level allocates nothing.
type tickEntry struct {
	node Activity
	tc   *TickContext
	lat  avtime.WorldTime
	err  error
}

// execEntry is phase B's pool item: the parallel-safe part of entry i's
// tick — the Tick itself and the node's latency draw (each activity owns
// its latency model and RNG, so draws from different nodes commute).
func (r *GraphRun) execEntry(i int) {
	e := &r.entries[i]
	if e.err = e.node.Tick(e.tc); e.err == nil {
		e.lat = sampleLatency(e.node)
	}
}
