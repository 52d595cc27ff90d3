package activity

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// GraphRun is one graph execution, unrolled into a resumable per-tick
// state machine so a scheduler can interleave several runs on one shared
// clock.  The protocol is:
//
//	r, err := g.Begin(cfg)        // validate, levelize, open spans
//	for {
//	    done, err := r.Tick()     // one wavefront over every level
//	    if err != nil { break }
//	    r.Commit()                // advance the clock past the tick
//	    if done { break }
//	}
//	stats, err := r.Finish()      // drain, close spans, stop nodes
//
// Graph.Run drives exactly this loop, so a run stepped externally (by
// core.Engine) is byte-identical — same RunStats, same obs output — to a
// direct Run when nothing else shares the clock.  An external driver may
// replace Commit with its own clock advance covering several runs; Tick
// itself never moves the clock.
//
// GraphRun is not safe for concurrent use: Tick, Commit, SetRound and
// Finish must be called from one goroutine at a time.
//
// A tick allocates nothing of its own: Begin resolves everything the
// topology fixes — each node's reusable TickContext, its incoming
// connections with the producer and consumer port slots they join, the
// source nodes — and Tick only walks those.  The chunks a tick produces
// live in the contexts' port slots until the tick returns, when every
// slot is cleared.
type GraphRun struct {
	g        *Graph
	clock    *sched.VirtualClock
	rate     avtime.Rate
	maxTicks int

	conns   []*Connection
	nodes   []*runNode   // one per node, in topological order
	levels  [][]*runNode // nodes partitioned into dependency levels
	sources []Activity   // the source nodes, for the done check
	pool    *sched.Pool
	batch   sched.Batch // phase B over entries, reused level to level
	entries []tickEntry
	latest  avtime.WorldTime // latest chunk arrival so far; Finish drains to it

	startAt avtime.WorldTime
	lastNow avtime.WorldTime // scheduled time of the last executed tick

	sink      obs.Sink
	pbSpan    obs.SpanID
	actSpans  []obs.SpanID // parallel to nodes
	connSpans []obs.SpanID // parallel to conns

	stats    *RunStats
	tick     int   // ticks executed so far
	round    int64 // round tag for the next tick; <0 follows the tick index
	runErr   error
	done     bool
	finished bool
}

// runNode is one node's tick state for the whole run: its reusable
// context and its incoming connections, resolved to port slots.
type runNode struct {
	node Activity
	tc   *TickContext
	in   []runEdge // incoming connections, in connection order
}

// runEdge is one incoming connection: the chunk in the producer's out
// slot src.slots[from] crosses conn into the consumer's in slot to.
type runEdge struct {
	conn *Connection
	span int // index into GraphRun.connSpans
	src  *TickContext
	from int
	to   int
}

// Begin validates the configuration, freezes the graph's topology into
// dependency levels, opens the playback/activity/connection spans and
// returns a run ready for its first Tick.  The graph's nodes must already
// be started.  On error nothing is torn down (matching Run's historical
// behavior); the caller still owns the started graph.
func (g *Graph) Begin(cfg RunConfig) (*GraphRun, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("activity: RunConfig needs a clock")
	}
	rate := cfg.Rate
	if rate.IsZero() {
		rate = avtime.RateVideo30
	}
	maxTicks := cfg.MaxTicks
	if maxTicks <= 0 {
		maxTicks = 10_000_000
	}
	order, err := g.topo()
	if err != nil {
		return nil, err
	}
	conns := g.Connections()
	incoming := make(map[string][]*Connection)
	for _, c := range conns {
		incoming[c.to.Name()] = append(incoming[c.to.Name()], c)
	}
	levels := levelize(order, incoming)
	r := &GraphRun{
		g:        g,
		clock:    cfg.Clock,
		rate:     rate,
		maxTicks: maxTicks,
		conns:    conns,
		nodes:    make([]*runNode, len(order)),
		levels:   make([][]*runNode, len(levels)),
		pool:     cfg.Pool,
		entries:  make([]tickEntry, 0, len(order)),
		startAt:  cfg.Clock.Now(),
		sink:     cfg.Obs,
		stats:    &RunStats{},
		round:    -1,
	}
	byName := make(map[string]*runNode, len(order))
	for i, node := range order {
		rn := &runNode{node: node, tc: newNodeContext(node)}
		r.nodes[i] = rn
		byName[node.Name()] = rn
		if node.Kind() == KindSource {
			r.sources = append(r.sources, node)
		}
	}
	for i, c := range conns {
		src, dst := byName[c.from.Name()], byName[c.to.Name()]
		dst.in = append(dst.in, runEdge{
			conn: c, span: i, src: src.tc,
			from: src.tc.declare(c.fromPort), to: dst.tc.declare(c.toPort),
		})
	}
	for d, level := range levels {
		r.levels[d] = make([]*runNode, len(level))
		for j, node := range level {
			r.levels[d][j] = byName[node.Name()]
		}
	}
	r.batch.Do = r.execEntry
	r.batch.Labels = cfg.Labels
	// Observability: one playback span for the run, one activity span per
	// node and one connection span per edge, all closed by Finish on any
	// path.  Every chunk delivery nests a chunk span under its connection.
	// All guards are nil checks so an uninstrumented run never touches the
	// sink.
	if r.sink != nil {
		r.pbSpan = r.sink.BeginSpan(cfg.ObsParent, obs.KindPlayback, g.name, r.startAt)
		r.actSpans = make([]obs.SpanID, len(order))
		r.connSpans = make([]obs.SpanID, len(conns))
		for i, node := range order {
			r.actSpans[i] = r.sink.BeginSpan(r.pbSpan, obs.KindActivity, node.Name(), r.startAt)
		}
		for i, c := range conns {
			r.connSpans[i] = r.sink.BeginSpan(r.pbSpan, obs.KindConnection, c.label, r.startAt)
		}
		// Executor shape, not executor configuration: both gauges depend
		// only on the graph, so serial and parallel snapshots stay
		// byte-identical.
		r.sink.SetGauge("exec.levels", int64(len(levels)))
		r.sink.SetGauge("exec.width", int64(maxWidth(levels)))
	}
	return r, nil
}

// Graph returns the graph this run executes.
func (r *GraphRun) Graph() *Graph { return r.g }

// Rate returns the run's tick rate.
func (r *GraphRun) Rate() avtime.Rate { return r.rate }

// Ticks returns the number of ticks executed so far.
func (r *GraphRun) Ticks() int { return r.tick }

// Err returns the run's terminal error, if a Tick has failed.
func (r *GraphRun) Err() error { return r.runErr }

// SwapObs replaces the run's telemetry sink and returns the previous
// one.  The sharded engine uses it right after Begin (which emits the
// session's setup spans directly) to point the run at a private
// obs.Stage, so ticks on parallel workers buffer telemetry race-free
// for an admission-ordered replay at the commit barrier.  Callers must
// not swap while a Tick is in flight.
func (r *GraphRun) SwapObs(s obs.Sink) obs.Sink {
	old := r.sink
	r.sink = s
	return old
}

// Done reports whether the run has no more ticks to execute.
func (r *GraphRun) Done() bool { return r.done || r.runErr != nil || r.finished }

// NextDue returns the world time the run's next tick is scheduled for.
// A scheduler interleaving runs at different rates picks the run(s) with
// the smallest NextDue each step.
func (r *GraphRun) NextDue() avtime.WorldTime {
	return r.startAt + r.rate.DurationOf(avtime.ObjectTime(r.tick))
}

// CommitHorizon returns the clock value the run would commit after its
// last executed tick: the tick's scheduled time plus one tick interval.
// It is intentionally NOT NextDue — rational rates round per tick index,
// so lastNow+unit can differ from startAt+DurationOf(tick) by a
// microsecond, and byte-identity with the historical run loop requires
// the former.  Before the first tick it returns the start time (a no-op
// commit).
func (r *GraphRun) CommitHorizon() avtime.WorldTime {
	if r.tick == 0 {
		return r.startAt
	}
	return r.lastNow + r.rate.UnitDuration()
}

// SetRound tags the next Tick's chunk requests with an explicit storage
// service round.  The multi-session engine numbers rounds by engine step
// so concurrent graphs share per-disk SCAN-EDF batches; a standalone run
// leaves the default (the tick index).
func (r *GraphRun) SetRound(round int64) { r.round = round }

// Commit advances the shared clock past the last executed tick and
// refreshes Elapsed.  Single-run drivers call it after every successful
// Tick; a multi-run scheduler instead commits once per step, to the
// minimum CommitHorizon across its active runs.
func (r *GraphRun) Commit() {
	r.clock.AdvanceTo(r.CommitHorizon())
	r.stats.Elapsed = r.clock.Now() - r.startAt
}

// Tick executes one scheduling interval: every dependency level in
// order, with the phase A/B/C discipline of executor.go (serial
// delivery, pooled execution, serial publication), so any pool size
// reproduces the serial byte stream.  It returns done=true when the run
// has nothing further to execute — no node running, every source
// exhausted, or the tick bound reached.  Tick never advances the clock;
// the caller commits (Commit, or a scheduler-wide advance) between
// ticks.  After an error the run is terminal and Finish skips the drain.
func (r *GraphRun) Tick() (bool, error) {
	if r.finished || r.runErr != nil || r.done {
		return true, r.runErr
	}
	if r.tick >= r.maxTicks {
		r.done = true
		return true, nil
	}
	// Keep Elapsed current even when an external scheduler owns the
	// commit: at this point the clock covers every previously committed
	// tick, which is exactly what the historical loop recorded.
	r.stats.Elapsed = r.clock.Now() - r.startAt

	tick := r.tick
	now := r.startAt + r.rate.DurationOf(avtime.ObjectTime(tick))
	iv := avtime.Interval{Start: now, Dur: r.rate.UnitDuration()}
	round := r.round
	if round < 0 {
		round = int64(tick)
	}

	anyRunning, last, err := r.tickLevels(now, iv, tick, round)
	// The contexts hold this tick's chunks; drop them on every path so
	// the frames die with the tick instead of living until the next.
	for _, rn := range r.nodes {
		rn.tc.reset()
	}
	clear(r.entries[:cap(r.entries)])
	if err != nil {
		r.runErr = err
		return true, err
	}
	r.stats.Ticks++
	if last > r.latest {
		r.latest = last
	}
	r.lastNow = now
	r.tick++
	if !anyRunning || r.sourcesFinished() || r.tick >= r.maxTicks {
		r.done = true
	}
	return r.done, nil
}

// tickLevels runs one tick's levels and reports whether any node was
// running and the latest chunk arrival the tick produced.
func (r *GraphRun) tickLevels(now avtime.WorldTime, iv avtime.Interval, tick int, round int64) (bool, avtime.WorldTime, error) {
	stats := r.stats
	sink := r.sink
	anyRunning := false
	var last avtime.WorldTime
	for _, level := range r.levels {
		r.entries = r.entries[:0]

		// Phase A — serial, in topological order: move chunks across
		// connections, account faults, emit chunk spans, stage every
		// running node's tick inputs.  Producers sit in strictly
		// earlier levels, so their out slots are final for this level.
		for _, rn := range level {
			node := rn.node
			if node.State() != StateStarted {
				continue
			}
			anyRunning = true
			tc := rn.tc
			tc.begin(now, tick, iv, round)
			for k := range rn.in {
				edge := &rn.in[k]
				src := edge.src.slots[edge.from].out
				if src == nil {
					continue
				}
				conn := edge.conn
				oc := conn.deliver(src)
				if oc.err != nil {
					return anyRunning, last, oc.err
				}
				if oc.chunk == nil {
					// Lost in flight or absorbed by a fail-soft connection:
					// nothing arrives this tick; the receiver sees the gap and
					// the client hears about it.
					if oc.dropped {
						stats.ChunksDropped++
					}
					if oc.failed {
						stats.TransferFailures++
					}
					emitFault(conn.to, EventInfo{Event: EventFault, Activity: conn.to.Name(), At: now, Seq: src.Seq})
					continue
				}
				if oc.corrupted {
					stats.ChunksCorrupted++
				}
				if sink != nil {
					cs := sink.BeginSpan(r.connSpans[edge.span], obs.KindChunk, conn.label, src.At)
					sink.SpanAttr(cs, "seq", int64(src.Seq))
					sink.EndSpan(cs, oc.chunk.Arrived)
					sink.Observe("stream.chunk_latency_us", int64(oc.chunk.Arrived-oc.chunk.At))
				}
				tc.slots[edge.to].in = oc.chunk
				stats.Chunks++
				stats.BytesMoved += oc.chunk.Size()
				if oc.chunk.Arrived > last {
					last = oc.chunk.Arrived
				}
			}
			r.entries = append(r.entries, tickEntry{node: node, tc: tc})
		}

		// Phase B — tick the level on the pool.  A nil or one-lane
		// pool executes in entry order, which is exactly the serial
		// order.
		r.pool.Run(&r.batch, len(r.entries))

		// Phase C — serial, in topological order: surface the first
		// error, stamp activity latency onto outputs and leave them in
		// the out slots for the next level, walking each node's ports
		// in declaration order.
		for i := range r.entries {
			e := &r.entries[i]
			if e.err != nil {
				return anyRunning, last, fmt.Errorf("activity: %s at tick %d: %w", e.node.Name(), tick, e.err)
			}
			for k := range e.tc.slots {
				slot := &e.tc.slots[k]
				c := slot.out
				if c == nil {
					continue
				}
				if slot.port == nil {
					return anyRunning, last, fmt.Errorf("activity: %s emitted on unknown port %q", e.node.Name(), slot.name)
				}
				if c.Arrived < now {
					c.Arrived = now
				}
				c.Arrived += e.lat
				propagateExtra(c, e.lat)
				if c.Arrived > last {
					last = c.Arrived
				}
			}
		}
	}
	return anyRunning, last, nil
}

// sourcesFinished reports whether no source node remains started.
func (r *GraphRun) sourcesFinished() bool {
	for _, a := range r.sources {
		if a.State() == StateStarted {
			return false
		}
	}
	return true
}

// Finish completes the run: on success it advances the clock to the
// latest in-flight arrival, then on every path it closes the
// observability spans and stops the graph's nodes (teardown failures
// surface as StopErr).
// Finish is idempotent; later calls return the same result.
func (r *GraphRun) Finish() (*RunStats, error) {
	if r.finished {
		return r.stats, r.runErr
	}
	r.finished = true
	if r.runErr == nil {
		// Drain: chunks still in flight when the sources finish belong to
		// this run.  The final clock reading must cover the latest
		// arrival, so tail latency shows up in Elapsed instead of being
		// cut off.
		r.stats.LastArrival = r.latest
		r.clock.AdvanceTo(r.latest)
		r.stats.Elapsed = r.clock.Now() - r.startAt
	}
	r.closeObs()
	// A finished run leaves every activity quiescent so the graph can be
	// cued and started again; teardown failures surface through stats.
	if err := r.g.Stop(); err != nil {
		r.stats.StopErr = err
	}
	return r.stats, r.runErr
}

// closeObs ends every span opened by Begin and publishes the run's
// stream counters, at the clock's current (post-drain) reading.
func (r *GraphRun) closeObs() {
	if r.sink == nil {
		return
	}
	now := r.clock.Now()
	for i, c := range r.conns {
		id := r.connSpans[i]
		c.mu.Lock()
		chunks, bytes := c.chunks, c.bytes
		c.mu.Unlock()
		r.sink.SpanAttr(id, "chunks", chunks)
		r.sink.SpanAttr(id, "bytes", bytes)
		r.sink.EndSpan(id, now)
	}
	for _, id := range r.actSpans {
		r.sink.EndSpan(id, now)
	}
	r.sink.SpanAttr(r.pbSpan, "ticks", int64(r.stats.Ticks))
	r.sink.EndSpan(r.pbSpan, now)
	r.sink.Count("sched.ticks", int64(r.stats.Ticks))
	r.sink.Count("stream.chunks", r.stats.Chunks)
	r.sink.Count("stream.bytes", r.stats.BytesMoved)
	r.sink.Count("stream.dropped", r.stats.ChunksDropped)
	r.sink.Count("stream.corrupted", r.stats.ChunksCorrupted)
	r.sink.Count("stream.transfer_failures", r.stats.TransferFailures)
}
