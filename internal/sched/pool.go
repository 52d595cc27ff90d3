package sched

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Pool is the database's one bounded tick pool: the engine ticks due
// session shards on it, and each ticking session runs its wide
// dependency levels on it too, so sessions and graph width share one
// lane bound instead of multiplying two.
//
// Run is help-while-waiting: the goroutine that submits a batch claims
// its items itself alongside lanes-1 helper goroutines, so a batch
// submitted from inside another batch's item finishes even when every
// other lane is busy, and nesting cannot deadlock.  While items it did
// not claim are still running, a submitter helps batches submitted
// after its own (nested levels, whose items are leaves) instead of
// idling.  Helpers start at the first batch that needs them and exit on
// Stop or when SetLanes shrinks the pool; in between, dispatch
// allocates nothing.  A nil *Pool runs every batch serially.
type Pool struct {
	mu    sync.Mutex
	cond  sync.Cond // new batches, finished helpers, resizes
	lanes int       // bound, counting the submitting caller as one lane
	live  int       // helper goroutines running
	want  int       // helpers wanted: lanes-1, or 0 once stopped
	seq   uint64    // submission counter ordering open batches
	open  []*Batch  // submitted batches whose submitter is still claiming
}

// Batch is one fan-out of independent items, owned and reused by its
// submitter: set Do and Labels once, since binding a method value per
// Run would allocate.
type Batch struct {
	Do     func(i int)     // executes item i; items may run concurrently
	Labels context.Context // pprof labels helper lanes run the items under

	n      int
	next   atomic.Int64 // next unclaimed item
	seq    uint64       // submission order, under Pool.mu
	joined int          // helpers running the batch's items, under Pool.mu
}

// NewPool returns a pool of the given lanes (<= 1 runs every batch
// serially).  No goroutine starts until a batch needs one.
func NewPool(lanes int) *Pool {
	p := &Pool{}
	p.cond.L = &p.mu
	p.SetLanes(lanes)
	return p
}

// SetLanes resizes the pool; n < 1 means 1.  Surplus helpers exit once
// idle and missing ones start at the next batch.
func (p *Pool) SetLanes(n int) {
	p.mu.Lock()
	p.lanes = max(n, 1)
	p.want = min(p.want, p.lanes-1)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Lanes reports the pool's lane bound.
func (p *Pool) Lanes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lanes
}

// Stop makes the helpers exit and waits for them; a later Run starts
// them again.  Stop must not run concurrently with Run.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.want = 0
	p.cond.Broadcast()
	for p.live > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Run executes b.Do(0) … b.Do(n-1) and returns once all have finished.
// On a nil or one-lane pool the caller runs them in item order.
func (p *Pool) Run(b *Batch, n int) {
	if p != nil && n > 1 {
		p.mu.Lock()
		if p.lanes > 1 {
			p.runLocked(b, n)
			return
		}
		p.mu.Unlock()
	}
	for i := 0; i < n; i++ {
		b.Do(i)
	}
}

// runLocked publishes b, claims items until none are left, then waits
// for the helpers still inside b, helping newer batches meanwhile.
// Called with p.mu held; returns with it released.
func (p *Pool) runLocked(b *Batch, n int) {
	for p.want = p.lanes - 1; p.live < p.want; p.live++ {
		go p.helper()
	}
	b.n = n
	b.next.Store(0)
	p.seq++
	b.seq = p.seq
	p.open = append(p.open, b)
	p.cond.Broadcast()
	p.mu.Unlock()

	b.drain()

	p.mu.Lock()
	for i, o := range p.open {
		if o == b {
			last := len(p.open) - 1
			copy(p.open[i:], p.open[i+1:])
			p.open[last] = nil // a stale slot would keep b's owner alive
			p.open = p.open[:last]
			break
		}
	}
	for b.joined > 0 {
		if o := p.pickLocked(b.seq); o != nil {
			p.helpLocked(o, b.Labels)
		} else {
			p.cond.Wait()
		}
	}
	p.mu.Unlock()
}

// helper is one pool lane: it joins open batches until the pool no
// longer wants it.
func (p *Pool) helper() {
	p.mu.Lock()
	for p.live <= p.want {
		if o := p.pickLocked(0); o != nil {
			p.helpLocked(o, nil)
		} else {
			p.cond.Wait()
		}
	}
	p.live--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// pickLocked returns the newest batch submitted after seq that still
// has unclaimed items: nested levels finish before their enclosing
// batch hands out more work.
func (p *Pool) pickLocked(after uint64) *Batch {
	for i := len(p.open) - 1; i >= 0; i-- {
		if o := p.open[i]; o.seq > after && o.next.Load() < int64(o.n) {
			return o
		}
	}
	return nil
}

// helpLocked runs o's items under o's labels, then restores the lane's
// own.  Called and returns with p.mu held.
func (p *Pool) helpLocked(o *Batch, own context.Context) {
	o.joined++
	p.mu.Unlock()
	setLabels(o.Labels)
	o.drain()
	setLabels(own)
	p.mu.Lock()
	if o.joined--; o.joined == 0 {
		p.cond.Broadcast()
	}
}

// drain claims and executes items until none are left unclaimed.
func (b *Batch) drain() {
	for i := int(b.next.Add(1) - 1); i < b.n; i = int(b.next.Add(1) - 1) {
		b.Do(i)
	}
}

func setLabels(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.SetGoroutineLabels(ctx)
}
