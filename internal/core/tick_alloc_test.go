package core

import (
	"fmt"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// admitRealSessions starts n real playback sessions on an engine whose
// loop goroutine is held out, so the test steps it synchronously.  Each
// session is a VideoReader bound to its own clip, placed striped over two
// disks and served through SCAN-EDF rounds and the shared buffer pool,
// connected to a VideoWindow over the LAN.
func admitRealSessions(t *testing.T, n, frames int) (*Engine, []*activities.VideoWindow) {
	t.Helper()
	db := testDB(t)
	db.Storage().SetCachePolicy(storage.CachePolicy{Capacity: 8, Lookahead: 4})
	q, err := media.ParseVideoQuality(testQualityStr)
	if err != nil {
		t.Fatal(err)
	}
	e := db.Engine()
	e.mu.Lock()
	e.running = true // keep the loop goroutine out; the test steps directly
	e.mu.Unlock()
	var wins []*activities.VideoWindow
	for i := 0; i < n; i++ {
		o, err := db.NewObject("SimpleNewscast")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(frames))); err != nil {
			t.Fatal(err)
		}
		if _, err := db.PlaceMediaStriped(o.OID(), "videoTrack", media.MBPerSecond, 2); err != nil {
			t.Fatal(err)
		}
		sess, err := db.Connect(fmt.Sprintf("alloc-%d", i), "lan0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		sess.SetStriping(storage.StripePolicy{Seeks: true, Rounds: true})
		reader, err := activities.NewVideoReader("dbSource", activity.AtDatabase, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.InstallStriped(reader, sched.Resources{Buffers: 1}, 2); err != nil {
			t.Fatal(err)
		}
		win := activities.NewVideoWindow("appSink", activity.AtApplication, q, 50*avtime.Millisecond)
		if err := sess.Install(win, sched.Resources{}); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Connect(reader, "out", win, "in", q.DataRate()); err != nil {
			t.Fatal(err)
		}
		if err := sess.BindValue(o.OID(), "videoTrack", reader, "out", media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Start(); err != nil {
			t.Fatal(err)
		}
		wins = append(wins, win)
	}
	// Cleanups run last-in first-out: play every session out before the
	// Close cleanups above wait for their playbacks to retire.
	t.Cleanup(func() {
		for e.stepOnce() {
		}
	})
	return e, wins
}

// TestEngineRealStepAllocs pins the tick path's allocation budget on real
// sessions rather than engine fakes: once warm, one engine step costs at
// most two heap allocations per session — the reader's Chunk and the
// copy that crosses the LAN connection.  Everything else on the step
// (tick contexts, port slots, connection lookup, the done check, storage
// rounds, pool hits, the engine's own bookkeeping) reuses memory.
func TestEngineRealStepAllocs(t *testing.T) {
	const sessions, warm, runs, frames = 4, 32, 100, 200
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			e, wins := admitRealSessions(t, sessions, frames)
			e.SetWorkers(workers)
			for i := 0; i < warm; i++ {
				e.stepOnce()
			}
			allocs := testing.AllocsPerRun(runs, func() { e.stepOnce() })
			if per := allocs / sessions; per > 2 {
				t.Errorf("engine step: %.2f allocs per session at %d workers, want <= 2", per, workers)
			}
			// Every measured step presented a frame in every session: the
			// budget was measured on real playback, not on idle steps.
			for i, w := range wins {
				if got, want := w.FramesShown(), warm+runs+1; got != want {
					t.Errorf("session %d showed %d frames, want %d", i, got, want)
				}
			}
		})
	}
}
