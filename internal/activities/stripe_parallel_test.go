package activities

import (
	"bytes"
	"reflect"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// runStripedWide plays 8 striped streams through VideoReaders on a pool
// of the given lane count and returns everything the determinism comparison
// needs: run stats, per-window arrival times, the scheduler counters,
// and the full obs snapshot.
func runStripedWide(t *testing.T, workers int) (*activity.RunStats, [][]avtime.WorldTime, storage.IOStats, []byte) {
	t.Helper()
	const (
		lanes  = 8
		frames = 30
		width  = 4
	)
	dm := device.NewManager()
	for _, id := range []string{"d0", "d1", "d2", "d3"} {
		d := device.NewDisk(id, 10_000_000, media.DataRate(lanes)*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.NewStore(dm)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetStriping(storage.StripePolicy{Seeks: true, Rounds: true})

	g := activity.NewGraph("striped")
	wins := make([]*VideoWindow, lanes)
	for i := 0; i < lanes; i++ {
		clip := motionClip(frames)
		seg, err := st.PlaceStriped(clip, media.MBPerSecond, width)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		reader, err := NewVideoReader("r"+string(rune('0'+i)), db, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		if err := reader.Bind(clip, "out"); err != nil {
			t.Fatal(err)
		}
		reader.AttachStream(stream)
		wins[i] = NewVideoWindow("w"+string(rune('0'+i)), app, media.VideoQuality{}, avtime.Second)
		addAll(t, g, reader, wins[i])
		connect(t, g, reader, "out", wins[i], "in")
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(workers)
	defer pool.Stop()
	stats, err := g.Run(activity.RunConfig{Clock: sched.NewVirtualClock(0), Pool: pool, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([][]avtime.WorldTime, lanes)
	for i, w := range wins {
		if w.FramesShown() != frames {
			t.Fatalf("workers=%d: window %d showed %d/%d frames", workers, i, w.FramesShown(), frames)
		}
		arrivals[i] = w.Arrivals()
	}
	snap, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stats, arrivals, st.IOStats(), []byte(snap)
}

func TestStripedSerialParallelEquivalence(t *testing.T) {
	// The round scheduler sits on the hot path of every worker lane;
	// batching per tick must not let the lane count leak into results.
	// Serial and parallel runs must agree on stats, every stream's
	// arrival times, the scheduler counters, and the byte-exact obs
	// snapshot.
	serialStats, serialArr, serialIO, serialSnap := runStripedWide(t, 1)
	if serialIO.Scheduled == 0 || serialIO.SeeksSaved == 0 {
		t.Fatalf("scheduler idle in the striped run: %+v", serialIO)
	}
	for _, workers := range []int{2, 4} {
		parStats, parArr, parIO, parSnap := runStripedWide(t, workers)
		if !reflect.DeepEqual(serialStats, parStats) {
			t.Errorf("workers=%d: RunStats diverged:\nserial   %+v\nparallel %+v", workers, serialStats, parStats)
		}
		if !reflect.DeepEqual(serialArr, parArr) {
			t.Errorf("workers=%d: frame arrival times diverged", workers)
		}
		if serialIO != parIO {
			t.Errorf("workers=%d: IO scheduler stats diverged:\nserial   %+v\nparallel %+v", workers, serialIO, parIO)
		}
		if !bytes.Equal(serialSnap, parSnap) {
			t.Errorf("workers=%d: obs snapshots differ (%d vs %d bytes)", workers, len(serialSnap), len(parSnap))
		}
	}
}
