package activity

import (
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/fault"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
)

// gapSource emits one chunk tagged with the tick's Seq on every even
// tick, and nothing on odd ticks, for the given number of ticks.
type gapSource struct {
	*Base
	ticks int
}

func newGapSource(name string, ticks int) *gapSource {
	s := &gapSource{Base: NewBase(name, "TestGapSource", AtDatabase), ticks: ticks}
	s.AddPort("out", Out, media.TypeRawVideo30)
	return s
}

func (s *gapSource) Tick(tc *TickContext) error {
	if tc.Seq%2 == 0 {
		tc.Emit("out", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now, Payload: media.NewFrame(4, 4, 8)})
	}
	if tc.Seq+1 >= s.ticks {
		s.MarkDone()
	}
	return nil
}

// tickProbe is a sink recording, per tick, the tick's Seq and Round, the
// chunk on its In port and the context it ran on.
type tickProbe struct {
	*Base
	seqs   []int
	rounds []int64
	ins    []*Chunk
	ctxs   []*TickContext
}

func newTickProbe(name string) *tickProbe {
	p := &tickProbe{Base: NewBase(name, "TestProbe", AtApplication)}
	p.AddPort("in", In, media.TypeRawVideo30)
	return p
}

func (p *tickProbe) Tick(tc *TickContext) error {
	p.seqs = append(p.seqs, tc.Seq)
	p.rounds = append(p.rounds, tc.Round)
	p.ins = append(p.ins, tc.In("in"))
	p.ctxs = append(p.ctxs, tc)
	return nil
}

// assertContextsClear fails if any of the run's contexts still holds a
// chunk or a slot added by name.
func assertContextsClear(t *testing.T, r *GraphRun, when string) {
	t.Helper()
	for _, rn := range r.nodes {
		tc := rn.tc
		if len(tc.slots) != tc.declared {
			t.Fatalf("%s: %s's context kept %d undeclared slots", when, rn.node.Name(), len(tc.slots)-tc.declared)
		}
		for _, s := range tc.slots {
			if s.in != nil || s.out != nil {
				t.Fatalf("%s: %s's context still holds a chunk on port %q", when, rn.node.Name(), s.name)
			}
		}
	}
}

// TestReusedContextNeverShowsStaleInput drives a fail-soft connection
// through a partition window while its producer also skips every other
// tick.  On every tick where nothing crossed — the producer emitted
// nothing, or the link was down — the receiver's In must be nil, never
// the chunk a reused context held on an earlier tick.  No context may
// hold a chunk once Tick returns.
func TestReusedContextNeverShowsStaleInput(t *testing.T) {
	const ticks = 40
	clock := sched.NewVirtualClock(0)
	unit := avtime.RateVideo30.UnitDuration()
	plan := fault.NewPlan(1).MustAdd(fault.Fault{Kind: fault.LinkPartition, Target: "lan", Start: 10 * unit, Dur: 10 * unit})
	link := netsim.NewLink("lan", media.MBPerSecond, avtime.Millisecond, 0, 1)
	link.SetFaultHook(fault.NewInjector(plan, clock))
	nc, err := link.Connect(media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph("stale")
	src, probe := newGapSource("src", ticks), newTickProbe("probe")
	for _, a := range []Activity{src, probe} {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := g.ConnectVia(src, "out", probe, "in", nc)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetFailSoft(true)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	r, err := g.Begin(RunConfig{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := r.Tick()
		if err != nil {
			t.Fatal(err)
		}
		assertContextsClear(t, r, "after a tick")
		r.Commit()
		if done {
			break
		}
	}
	stats, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TransferFailures == 0 {
		t.Fatal("the partition window absorbed no transfer; the test exercises nothing")
	}
	delivered := 0
	for i, in := range probe.ins {
		seq := probe.seqs[i]
		if in == nil {
			continue
		}
		delivered++
		if in.Seq != seq {
			t.Errorf("tick %d: In holds the chunk of tick %d", seq, in.Seq)
		}
	}
	if want := ticks/2 - int(stats.TransferFailures); delivered != want {
		t.Errorf("probe saw %d chunks, want %d (emitted %d, %d lost to the partition)",
			delivered, want, ticks/2, stats.TransferFailures)
	}
	for i := 1; i < len(probe.ctxs); i++ {
		if probe.ctxs[i] != probe.ctxs[0] {
			t.Fatalf("tick %d ran on a fresh context; the run should reuse one per node", probe.seqs[i])
		}
	}
}

// badEmitter emits on its declared port and on two it never declared.
type badEmitter struct{ *Base }

func (b *badEmitter) Tick(tc *TickContext) error {
	tc.Emit("out", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now, Payload: media.NewFrame(4, 4, 8)})
	tc.Emit("zzz", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now, Payload: media.NewFrame(4, 4, 8)})
	tc.Emit("aaa", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now, Payload: media.NewFrame(4, 4, 8)})
	return nil
}

// TestEmitUnknownPortErrorIsStable pins that an emit on an undeclared
// port fails the run with the same error every time — the first
// undeclared port in emission order — and that the failing tick leaves
// no chunk behind in any context.
func TestEmitUnknownPortErrorIsStable(t *testing.T) {
	const want = `activity: bad emitted on unknown port "zzz"`
	for i := 0; i < 20; i++ {
		g := NewGraph("unknown-port")
		bad := &badEmitter{Base: NewBase("bad", "TestBadEmitter", AtDatabase)}
		bad.AddPort("out", Out, media.TypeRawVideo30)
		sink := newFrameSink("sink", AtApplication)
		for _, a := range []Activity{bad, sink} {
			if err := g.Add(a); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.Connect(bad, "out", sink, "in"); err != nil {
			t.Fatal(err)
		}
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		r, err := g.Begin(RunConfig{Clock: sched.NewVirtualClock(0)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Tick()
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", i, err, want)
		}
		assertContextsClear(t, r, "after the failing tick")
		if _, err := r.Finish(); err == nil || err.Error() != want {
			t.Fatalf("run %d: Finish error %v, want %q", i, err, want)
		}
	}
}

// TestCompositeChildSeesEngineRound pins that components inside a
// composite tick under the composite's round, not their own tick index:
// a run tagged with SetRound(k) must show k to a probe nested in a
// composite, on one context reused across ticks.
func TestCompositeChildSeesEngineRound(t *testing.T) {
	const ticks, base = 12, 1000
	comp := NewComposite("box", "TestBox", AtApplication)
	probe := newTickProbe("probe")
	if err := comp.Install(probe); err != nil {
		t.Fatal(err)
	}
	if err := comp.ExportIn("in", probe, "in"); err != nil {
		t.Fatal(err)
	}
	g := NewGraph("round")
	src := newGapSource("src", ticks)
	for _, a := range []Activity{src, comp} {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect(src, "out", comp, "in"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	r, err := g.Begin(RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; ; k++ {
		r.SetRound(int64(base + 7*k))
		done, err := r.Tick()
		if err != nil {
			t.Fatal(err)
		}
		r.Commit()
		if done {
			break
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(probe.rounds) != ticks {
		t.Fatalf("probe ticked %d times, want %d", len(probe.rounds), ticks)
	}
	for k, round := range probe.rounds {
		if want := int64(base + 7*k); round != want {
			t.Errorf("tick %d: component saw round %d, want %d", k, round, want)
		}
		if probe.seqs[k] != k {
			t.Errorf("tick %d: component saw Seq %d", k, probe.seqs[k])
		}
		if probe.ctxs[k] != probe.ctxs[0] {
			t.Errorf("tick %d: component ran on a fresh context", k)
		}
		if in := probe.ins[k]; (in != nil) != (k%2 == 0) || (in != nil && in.Seq != k) {
			t.Errorf("tick %d: component's In = %+v", k, in)
		}
	}
}
