package core

import (
	"cmp"
	"container/heap"
	"slices"

	"avdb/internal/avtime"
)

// runBook is the engine's admission book: a binary min-heap over the
// admitted entries themselves, keyed (due, admission id).  Each entry
// carries its own heap index, so reschedule and remove are O(log n)
// without an id→index map, and dueBatch visits only the heap prefix
// holding the minimum due time.  Admission ids are handed out in
// order, so ordering ties by id is ordering by admission, and the batch
// stream is deterministic for a given admission history.
//
// An entry's due field is the heap key and changes only through
// admit and reschedule.  The book is not goroutine-safe; the engine
// serializes access under its own lock.
type runBook struct {
	next  int64          // last admission id handed out
	heap  []*engineEntry // min-heap on (due, id)
	batch []*engineEntry // dueBatch result buffer, reused call to call
}

// Len, Less, Swap, Push and Pop implement heap.Interface; beyond Len,
// the engine calls only admit, reschedule, remove and dueBatch.
func (b *runBook) Len() int { return len(b.heap) }

func (b *runBook) Less(i, j int) bool {
	x, y := b.heap[i], b.heap[j]
	if x.due != y.due {
		return x.due < y.due
	}
	return x.id < y.id
}

func (b *runBook) Swap(i, j int) {
	b.heap[i], b.heap[j] = b.heap[j], b.heap[i]
	b.heap[i].index = i
	b.heap[j].index = j
}

func (b *runBook) Push(x any) {
	en := x.(*engineEntry)
	en.index = len(b.heap)
	b.heap = append(b.heap, en)
}

func (b *runBook) Pop() any {
	last := len(b.heap) - 1
	en := b.heap[last]
	b.heap[last] = nil
	b.heap = b.heap[:last]
	en.index = -1
	return en
}

// admit gives en the next admission id and enters it due at the given
// time.
func (b *runBook) admit(en *engineEntry, due avtime.WorldTime) {
	b.next++
	en.id = b.next
	en.due = due
	heap.Push(b, en)
}

// reschedule moves an admitted entry to a new due time.
func (b *runBook) reschedule(en *engineEntry, due avtime.WorldTime) {
	en.due = due
	heap.Fix(b, en.index)
}

// remove takes an admitted entry out of the book.
func (b *runBook) remove(en *engineEntry) {
	heap.Remove(b, en.index)
}

// dueBatch returns the earliest due time and every entry due at exactly
// that time, in admission order; the batch is empty when the book is.
// The walk reads the result buffer as its own worklist: a subtree whose
// root is past the minimum cannot hold one, by the heap property, so
// the cost is proportional to the batch, not the book.
//
// The returned slice is the book's buffer, valid until the next
// dueBatch call.  admit, reschedule and remove never touch it, so the
// engine may reschedule and remove entries while iterating the batch.
func (b *runBook) dueBatch() (avtime.WorldTime, []*engineEntry) {
	b.batch = b.batch[:0]
	if len(b.heap) == 0 {
		return 0, b.batch
	}
	due := b.heap[0].due
	b.batch = append(b.batch, b.heap[0])
	for k := 0; k < len(b.batch); k++ {
		left := 2*b.batch[k].index + 1
		for c := left; c < left+2 && c < len(b.heap); c++ {
			if b.heap[c].due == due {
				b.batch = append(b.batch, b.heap[c])
			}
		}
	}
	slices.SortFunc(b.batch, func(x, y *engineEntry) int { return cmp.Compare(x.id, y.id) })
	return due, b.batch
}
