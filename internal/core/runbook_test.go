package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"avdb/internal/avtime"
)

// linearRunBook is the original O(n)-per-step admission book the heap
// replaced: a slice in admission order, min-next-due found by scanning.
// It is kept here as the executable specification the run book must
// match batch for batch.
type linearRunBook struct {
	next    int64
	entries []linearEntry
}

type linearEntry struct {
	id  int64
	due avtime.WorldTime
}

func (s *linearRunBook) Admit(due avtime.WorldTime) int64 {
	s.next++
	s.entries = append(s.entries, linearEntry{id: s.next, due: due})
	return s.next
}

func (s *linearRunBook) Reschedule(id int64, due avtime.WorldTime) {
	for i := range s.entries {
		if s.entries[i].id == id {
			s.entries[i].due = due
			return
		}
	}
}

func (s *linearRunBook) Remove(id int64) {
	for i := range s.entries {
		if s.entries[i].id == id {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			return
		}
	}
}

func (s *linearRunBook) DueBatch() (due avtime.WorldTime, ids []int64) {
	if len(s.entries) == 0 {
		return 0, nil
	}
	due = s.entries[0].due
	for _, e := range s.entries[1:] {
		if e.due < due {
			due = e.due
		}
	}
	for _, e := range s.entries {
		if e.due == due {
			ids = append(ids, e.id)
		}
	}
	return due, ids
}

// bookPair drives the run book and the linear specification through
// the same operations.  live lists the admitted entries in admission
// order; the linear book names them by id.
type bookPair struct {
	book   runBook
	linear linearRunBook
	live   []*engineEntry
}

func (p *bookPair) admit(t testing.TB, due avtime.WorldTime) {
	t.Helper()
	en := &engineEntry{}
	p.book.admit(en, due)
	if id := p.linear.Admit(due); en.id != id {
		t.Fatalf("admit ids diverge: %d != %d", en.id, id)
	}
	p.live = append(p.live, en)
}

func (p *bookPair) reschedule(en *engineEntry, due avtime.WorldTime) {
	p.book.reschedule(en, due)
	p.linear.Reschedule(en.id, due)
}

func (p *bookPair) remove(i int) {
	en := p.live[i]
	p.book.remove(en)
	p.linear.Remove(en.id)
	p.live = append(p.live[:i], p.live[i+1:]...)
}

// batchIDs returns the book's due batch as ids, copied out of the
// book's reused buffer.
func batchIDs(b *runBook) (avtime.WorldTime, []int64) {
	due, batch := b.dueBatch()
	var ids []int64
	for _, en := range batch {
		ids = append(ids, en.id)
	}
	return due, ids
}

// checkAnswer asserts the book's answer after an operation: its size
// and a dueBatch equal to the linear scan's.
func (p *bookPair) checkAnswer(t testing.TB, where string) {
	t.Helper()
	b := &p.book
	if b.Len() != len(p.linear.entries) || b.Len() != len(p.live) {
		t.Fatalf("%s: Len %d, linear %d, live %d", where, b.Len(), len(p.linear.entries), len(p.live))
	}
	due, ids := batchIDs(b)
	ldue, lids := p.linear.DueBatch()
	if due != ldue || !reflect.DeepEqual(ids, lids) {
		t.Fatalf("%s: book batch (%v,%v) != linear (%v,%v)", where, due, ids, ldue, lids)
	}
}

// checkStructure asserts the book's structure after an operation: the
// heap order, every entry's stored index, and a second back-to-back
// dueBatch equal to the first despite the reused buffer.
func (p *bookPair) checkStructure(t testing.TB, where string) {
	t.Helper()
	b := &p.book
	for i, en := range b.heap {
		if en.index != i {
			t.Fatalf("%s: entry %d stores index %d, sits at %d", where, en.id, en.index, i)
		}
		if i > 0 && b.Less(i, (i-1)/2) {
			t.Fatalf("%s: heap order broken at %d: %d@%v under %d@%v", where, i,
				en.id, en.due, b.heap[(i-1)/2].id, b.heap[(i-1)/2].due)
		}
	}
	due, ids := batchIDs(b)
	due2, ids2 := batchIDs(b)
	if due != due2 || !reflect.DeepEqual(ids, ids2) {
		t.Fatalf("%s: dueBatch not idempotent: (%v,%v) then (%v,%v)", where, due, ids, due2, ids2)
	}
}

// check asserts both structure and answer.
func (p *bookPair) check(t testing.TB, where string) {
	t.Helper()
	p.checkStructure(t, where)
	p.checkAnswer(t, where)
}

// step is the engine's step: pop the due batch and reschedule each
// member while iterating the book's buffer, as stepOnce does.
func (p *bookPair) step(due func() avtime.WorldTime) {
	_, batch := p.book.dueBatch()
	for _, en := range batch {
		p.reschedule(en, due())
	}
}

// drive runs ops randomized operations on a fresh book pair — admits,
// reschedules, removes, and the engine's pop-batch step — calling check
// after each.  Due times are drawn from the first slots multiples of 10ms, a tiny
// range so multi-run ties (the interesting case for admission-order
// tie-breaking) are common; removeUpTo sets the remove weight out of 10.
func drive(t *testing.T, seed int64, ops, slots, removeUpTo int, check func(p *bookPair, where string)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var p bookPair
	due := func() avtime.WorldTime {
		return avtime.WorldTime(rng.Intn(slots)) * 10 * avtime.Millisecond
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(p.live) == 0:
			p.admit(t, due())
		case r < 6:
			p.reschedule(p.live[rng.Intn(len(p.live))], due())
		case r < removeUpTo:
			p.remove(rng.Intn(len(p.live)))
		default:
			p.step(due)
		}
		check(&p, fmt.Sprintf("seed %d op %d", seed, op))
	}
}

// TestRunBookMatchesLinearScan drives the book and the linear
// specification through the same randomized admission history and
// requires identical due times and identical batch order at every op.
func TestRunBookMatchesLinearScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1993} {
		drive(t, seed, 2000, 8, 7, func(p *bookPair, where string) { p.checkAnswer(t, where) })
	}
}

// TestRunBookPropertyOps is the structural companion of
// TestRunBookMatchesLinearScan: with removals more frequent, it checks
// the heap order, every stored index and back-to-back dueBatch
// idempotency after every op, as well as the answer.
func TestRunBookPropertyOps(t *testing.T) {
	for _, seed := range []int64{3, 11, 29, 71, 2026} {
		drive(t, seed, 3000, 6, 8, func(p *bookPair, where string) { p.check(t, where) })
	}
}

// TestRunBookDueBatchOrder walks the book through the engine's cases by
// hand: ties break in admission order, a batch follows reschedules and
// removals, and ids keep increasing after the book drains.
func TestRunBookDueBatchOrder(t *testing.T) {
	var b runBook
	if due, batch := b.dueBatch(); due != 0 || len(batch) != 0 {
		t.Fatalf("empty book returned a batch: %v %v", due, batch)
	}
	a, bb, c := &engineEntry{}, &engineEntry{}, &engineEntry{}
	b.admit(a, 0)
	b.admit(bb, 0)
	b.admit(c, 50*avtime.Millisecond)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if due, ids := batchIDs(&b); due != 0 || !reflect.DeepEqual(ids, []int64{a.id, bb.id}) {
		t.Fatalf("batch = %v %v, want 0 [%d %d]", due, ids, a.id, bb.id)
	}

	// Reschedule the first past the third: b and c now tie, b first.
	b.reschedule(a, 100*avtime.Millisecond)
	b.reschedule(bb, 50*avtime.Millisecond)
	if due, ids := batchIDs(&b); due != 50*avtime.Millisecond || !reflect.DeepEqual(ids, []int64{bb.id, c.id}) {
		t.Fatalf("batch = %v %v, want 50ms [%d %d]", due, ids, bb.id, c.id)
	}

	b.remove(bb)
	if due, ids := batchIDs(&b); due != 50*avtime.Millisecond || !reflect.DeepEqual(ids, []int64{c.id}) {
		t.Fatalf("after remove: %v %v", due, ids)
	}
	b.remove(c)
	b.remove(a)
	if b.Len() != 0 || a.index != -1 {
		t.Fatalf("Len after removals = %d, removed index = %d", b.Len(), a.index)
	}

	// Ids keep increasing after drain, so a restarted playback's entry
	// never collides with a retired one.
	d := &engineEntry{}
	b.admit(d, 0)
	if d.id <= c.id {
		t.Errorf("admit after drain reused id space: %d <= %d", d.id, c.id)
	}
}

// FuzzRunBook decodes arbitrary bytes into an admit/reschedule/remove/
// step stream and checks the book against the linear specification
// after every operation.  Each op takes two bytes: the op and its
// argument, whose low three bits pick a due slot and whose high bits
// pick a live entry.
func FuzzRunBook(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 1, 1, 0, 2, 5, 3, 0, 2, 1, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 2, 0, 2, 0, 2, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p bookPair
		for i := 0; i+1 < len(data) && i < 4096; i += 2 {
			arg := int(data[i+1])
			due := avtime.WorldTime(arg%8) * 10 * avtime.Millisecond
			switch op := data[i] % 4; {
			case op == 0 || len(p.live) == 0:
				p.admit(t, due)
			case op == 1:
				p.reschedule(p.live[arg/8%len(p.live)], due)
			case op == 2:
				p.remove(arg / 8 % len(p.live))
			default:
				k := arg
				p.step(func() avtime.WorldTime {
					k = k*7 + 3
					return avtime.WorldTime(k%8) * 10 * avtime.Millisecond
				})
			}
			p.check(t, fmt.Sprintf("op %d", i/2))
		}
	})
}

// newLockstepBook returns a book of n entries all due at 0: every
// step's batch is the whole book, as on vod-cohort.
func newLockstepBook(n int) *runBook {
	b := &runBook{}
	for i := 0; i < n; i++ {
		b.admit(&engineEntry{}, 0)
	}
	return b
}

// newDephasedBook returns a book of n entries each due at a different
// time: every step's batch is one entry, which then moves n units on.
func newDephasedBook(n int) *runBook {
	b := &runBook{}
	for i := 0; i < n; i++ {
		b.admit(&engineEntry{}, avtime.WorldTime(i))
	}
	return b
}

// bookStep is the engine's book traffic for one step: take the due
// batch and reschedule every member by unit.
func bookStep(b *runBook, unit avtime.WorldTime) {
	due, batch := b.dueBatch()
	for _, en := range batch {
		b.reschedule(en, due+unit)
	}
}

// TestRunBookAllocs pins the engine's per-step book traffic — dueBatch
// plus a reschedule of every due entry — at zero allocations on a
// warmed 1k lockstep book.
func TestRunBookAllocs(t *testing.T) {
	b := newLockstepBook(1000)
	for i := 0; i < 4; i++ {
		bookStep(b, 1)
	}
	if allocs := testing.AllocsPerRun(100, func() { bookStep(b, 1) }); allocs != 0 {
		t.Errorf("dueBatch+reschedule allocates %.1f times per step, want 0", allocs)
	}
}

// BenchmarkRunBook measures one engine step's book traffic (bookStep)
// for the two traffic shapes: lockstep, where every run is due in every
// step, and dephased, where each step's batch is a single run.
func BenchmarkRunBook(b *testing.B) {
	for _, bc := range []struct {
		name string
		book func() *runBook
		unit avtime.WorldTime
	}{
		{"lockstep-1k", func() *runBook { return newLockstepBook(1000) }, 1},
		{"dephased-1k", func() *runBook { return newDephasedBook(1000) }, 1000},
		{"dephased-10k", func() *runBook { return newDephasedBook(10000) }, 10000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			book := bc.book()
			for i := 0; i < 4; i++ {
				bookStep(book, bc.unit)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bookStep(book, bc.unit)
			}
		})
	}
}
