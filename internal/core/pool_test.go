package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/sched"
)

// TestEngineSetWorkersAfterAdmission widens a serial engine to four
// lanes after its admitted runs have already stepped.  Staging is
// decided per admission, so runs admitted while serial must still
// replay their telemetry in admission order once the steps go
// parallel: every repeat must match the all-serial run byte for byte.
func TestEngineSetWorkersAfterAdmission(t *testing.T) {
	const sessions = 5
	run := func(widen bool) (string, []*activity.RunStats) {
		db := testDB(t)
		col := db.EnableObservability()
		var pss []*playbackSession
		for i := 0; i < sessions; i++ {
			pss = append(pss, buildPlaybackSession(t, db, fmt.Sprintf("widen-%d", i), 15+4*i))
		}
		stepped := make(chan struct{}, 1)
		if err := pss[0].src.Catch(activity.EventEachFrame, func(activity.EventInfo) {
			select {
			case stepped <- struct{}{}:
			default:
			}
		}); err != nil {
			t.Fatal(err)
		}
		db.Engine().Pause()
		var pbs []*Playback
		for _, ps := range pss {
			pb, err := ps.sess.Start()
			if err != nil {
				t.Fatal(err)
			}
			pbs = append(pbs, pb)
		}
		db.Engine().Resume()
		if widen {
			<-stepped
			db.Engine().SetWorkers(4)
		}
		var all []*activity.RunStats
		for _, pb := range pbs {
			stats, err := pb.Wait()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, stats)
		}
		for _, ps := range pss {
			if err := ps.sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		js, err := col.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, all
	}

	baseSnap, baseStats := run(false)
	for rep := 0; rep < 20; rep++ {
		snap, stats := run(true)
		if !reflect.DeepEqual(baseStats, stats) {
			t.Errorf("rep %d: per-session RunStats diverged after SetWorkers(4)", rep)
		}
		if snap != baseSnap {
			t.Errorf("rep %d: obs snapshot differs from the serial run after SetWorkers(4) (%d vs %d bytes)",
				rep, len(snap), len(baseSnap))
		}
	}
}

// laneProbe is a portless source that ticks once.  With channels set,
// its Tick announces itself and blocks until released, holding a pool
// lane mid-Tick.
type laneProbe struct {
	*activity.Base
	arrived chan<- struct{}
	release <-chan struct{}
}

func (p *laneProbe) Tick(*activity.TickContext) error {
	if p.arrived != nil {
		p.arrived <- struct{}{}
		<-p.release
	}
	p.MarkDone()
	return nil
}

// TestEngineLanesCarrySessionLabels pins the lanes' pprof labels: a
// session's two-wide level ticks on two lanes at once — the engine's
// goroutine and a pool helper — and both must carry the session's
// avdb_session label while inside the activity's Tick.  A second,
// one-node session shares the first step, so the helper starts
// unlabeled and reaches the level only after ticking that session.
func TestEngineLanesCarrySessionLabels(t *testing.T) {
	db := testDB(t)
	db.Engine().SetWorkers(2)
	arrived := make(chan struct{})
	release := make(chan struct{})
	start := func(client string, probes int, arrived chan<- struct{}) (*Session, *Playback) {
		sess, err := db.Connect(client, "lan0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < probes; i++ {
			probe := &laneProbe{
				Base:    activity.NewBase(fmt.Sprintf("probe%d", i), "LaneProbe", activity.AtDatabase),
				arrived: arrived,
				release: release,
			}
			if err := sess.Install(probe, sched.Resources{}); err != nil {
				t.Fatal(err)
			}
		}
		pb, err := sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		return sess, pb
	}
	db.Engine().Pause()
	other, otherPB := start("other", 1, nil)
	sess, pb := start("labels", 2, arrived)
	db.Engine().Resume()
	<-arrived
	<-arrived
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, p := range []*Playback{pb, otherPB} {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Session{sess, other} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	label := fmt.Sprintf("%q:%q", "avdb_session", sess.ID())
	var inTick, onHelper int
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "(*laneProbe).Tick") {
			continue
		}
		// The first record also carries the profile's header line.
		var n int
		for _, line := range strings.Split(rec, "\n") {
			if _, err := fmt.Sscanf(line, "%d @", &n); err == nil {
				break
			}
		}
		inTick += n
		if !strings.Contains(rec, label) {
			t.Errorf("goroutine in Tick lacks the %s label:\n%s", label, rec)
		}
		if strings.Contains(rec, "(*Pool).helper") {
			onHelper += n
		}
	}
	if inTick != 2 || onHelper != 1 {
		t.Errorf("%d goroutines in Tick, %d on a pool helper; want 2 and 1:\n%s", inTick, onHelper, buf.String())
	}
}
