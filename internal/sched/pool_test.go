package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEachItemOnce(t *testing.T) {
	for _, lanes := range []int{0, 1, 2, 4} {
		for _, n := range []int{0, 1, 3, 17} {
			p := NewPool(lanes)
			hits := make([]atomic.Int32, n)
			b := Batch{Do: func(i int) { hits[i].Add(1) }}
			for rep := 0; rep < 3; rep++ {
				p.Run(&b, n)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 3 {
					t.Errorf("lanes=%d n=%d: item %d ran %d times, want 3", lanes, n, i, got)
				}
			}
			p.Stop()
		}
	}
}

func TestPoolNilAndOneLaneRunInOrder(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(1)} {
		var order []int
		b := Batch{Do: func(i int) { order = append(order, i) }}
		p.Run(&b, 5)
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Errorf("pool %v: order %v, want item order", p, order)
		}
	}
}

// TestPoolNestedBatchFinishesWhileLanesBusy is the help-while-waiting
// guarantee: with both lanes of a 2-lane pool held by an outer batch,
// one of whose items blocks until the other's nested batch completes,
// the nested batch must still finish — its submitter runs every item
// itself.
func TestPoolNestedBatchFinishesWhileLanesBusy(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	release := make(chan struct{})
	var innerRan atomic.Int32
	inner := Batch{Do: func(int) { innerRan.Add(1) }}
	outer := Batch{Do: func(i int) {
		if i == 0 {
			<-release
			return
		}
		p.Run(&inner, 6)
		close(release)
	}}
	done := make(chan struct{})
	go func() {
		p.Run(&outer, 2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested batch never finished: the pool deadlocked")
	}
	if got := innerRan.Load(); got != 6 {
		t.Errorf("inner items ran %d times, want 6", got)
	}
}

// TestPoolBoundsLanes nests a level batch inside every item of an outer
// batch, as the engine nests a session's levels inside its shard: at
// no point may more goroutines execute leaf items than the pool has
// lanes.
func TestPoolBoundsLanes(t *testing.T) {
	const lanes = 3
	p := NewPool(lanes)
	defer p.Stop()
	var active, peak atomic.Int32
	leaves := make([]Batch, 8)
	for i := range leaves {
		leaves[i].Do = func(int) {
			n := active.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			active.Add(-1)
		}
	}
	outer := Batch{Do: func(i int) { p.Run(&leaves[i], 5) }}
	for rep := 0; rep < 20; rep++ {
		p.Run(&outer, len(leaves))
	}
	if got := peak.Load(); got > lanes {
		t.Errorf("%d leaf items ran at once on a %d-lane pool", got, lanes)
	}
}

// TestPoolSharedBySubmitters has several goroutines submit nested
// batches to one pool at once — the shape of concurrent Graph.Runs on a
// shared pool — so -race sees every lane hand-off.
func TestPoolSharedBySubmitters(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums := make([]int, 4)
			leaves := make([]Batch, 4)
			for i := range leaves {
				i := i
				leaves[i].Do = func(j int) {
					if j == 0 {
						sums[i]++
					}
				}
			}
			outer := Batch{Do: func(i int) { p.Run(&leaves[i], 3) }}
			for rep := 0; rep < 50; rep++ {
				p.Run(&outer, len(leaves))
			}
			for i, s := range sums {
				if s != 50 {
					t.Errorf("leaf batch %d ran item 0 %d times, want 50", i, s)
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolSetLanesAndStop(t *testing.T) {
	p := NewPool(4)
	b := Batch{Do: func(int) {}}
	if liveHelpers(p) != 0 {
		t.Fatalf("NewPool started %d helpers, want none before the first batch", liveHelpers(p))
	}
	p.Run(&b, 8)
	if liveHelpers(p) != 3 {
		t.Errorf("4 lanes run %d helpers, want 3", liveHelpers(p))
	}
	p.Stop()
	if liveHelpers(p) != 0 {
		t.Errorf("Stop left %d helpers", liveHelpers(p))
	}
	p.SetLanes(2)
	p.Run(&b, 8)
	if liveHelpers(p) != 1 {
		t.Errorf("after SetLanes(2): %d helpers, want 1", liveHelpers(p))
	}
	p.Stop()
}

// TestPoolBatchAllocs pins the dispatch path: once the helpers are up,
// submitting and completing a batch allocates nothing.
func TestPoolBatchAllocs(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		p := NewPool(lanes)
		var sink atomic.Int64
		b := Batch{Do: func(i int) { sink.Add(int64(i)) }}
		for i := 0; i < 20; i++ {
			p.Run(&b, 16)
		}
		if allocs := testing.AllocsPerRun(200, func() { p.Run(&b, 16) }); allocs != 0 {
			t.Errorf("lanes=%d: batch dispatch allocates %.1f times, want 0", lanes, allocs)
		}
		p.Stop()
	}
}

func liveHelpers(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}
