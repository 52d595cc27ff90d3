package main

import (
	"fmt"
	"math/rand"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/query"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/synth"
)

// Video-on-demand clips: small raw frames so a thousand viewers fit in
// one process, at 30 fps.
const (
	clipW, clipH, clipDepth = 64, 48, 8
	clipFPS                 = 30
)

var clipQuality = media.VideoQuality{Width: clipW, Height: clipH, Depth: clipDepth, FPS: clipFPS}

// viewerRate is the bandwidth a viewer reserves, on its stripe disks
// and on the LAN: four times the clip's data rate, so a frame's
// transfer and a seek fit well inside the deadline tolerance.
var viewerRate = 4 * clipQuality.DataRate()

// vodSpec fixes one video-on-demand workload.
type vodSpec struct {
	viewers   int     // offered load
	clips     int     // library size
	exponent  float64 // Zipf popularity exponent
	frames    int     // clip length
	scattered bool    // seeded cue offsets, overload control, priority mix
	// capacity search grid, in viewers
	capLo, capHi, capStep int
}

var (
	vodCohort = vodSpec{
		viewers: 1000, clips: 24, exponent: 1.1, frames: 60,
		capLo: 500, capHi: 3000, capStep: 25,
	}
	vodScattered = vodSpec{
		viewers: 1000, clips: 240, exponent: 0.5, frames: 60, scattered: true,
		capLo: 500, capHi: 3000, capStep: 25,
	}
)

// viewer is one generated viewer: which clip it watches, where it
// starts in the clip, and its service class.
type viewerInput struct {
	clip      int
	cueFrames int
	priority  sched.Priority
}

// vodInputs is everything random about a vod workload, derived from
// the seed.  Viewers are generated up to the capacity search's upper
// bound, and a run with n viewers takes the first n, so a larger probe
// always holds a smaller one's audience.
type vodInputs struct {
	clipSeeds []int64
	viewers   []viewerInput
}

func genVodInputs(spec vodSpec, seed int64) vodInputs {
	rng := rand.New(rand.NewSource(seed))
	in := vodInputs{clipSeeds: make([]int64, spec.clips)}
	for k := range in.clipSeeds {
		in.clipSeeds[k] = rng.Int63()
	}
	z := newZipfSampler(spec.clips, spec.exponent)
	n := max(spec.viewers, spec.capHi)
	in.viewers = make([]viewerInput, n)
	for i := range in.viewers {
		v := viewerInput{clip: z.draw(rng), priority: sched.PriorityNormal}
		if spec.scattered {
			v.cueFrames = genCue(rng, spec.frames)
			v.priority = genPriority(rng)
		}
		in.viewers[i] = v
	}
	return in
}

// cueTime is the world-time cue point of frame k.
func cueTime(k int) avtime.WorldTime {
	return media.TypeRawVideo30.Rate.DurationOf(avtime.ObjectTime(k))
}

// attempted is how many frames a viewer cued at cueFrames is asked to
// present: the reader resumes at the frame its cue time falls in.
func (w *vodWorkload) attempted(v viewerInput) int64 {
	first := int(media.TypeRawVideo30.Rate.UnitsIn(cueTime(v.cueFrames)))
	return int64(w.spec.frames - first)
}

// genCue draws a viewer's start offset: anywhere in the first three
// quarters of the clip.
func genCue(rng *rand.Rand, frames int) int { return rng.Intn(frames * 3 / 4) }

// genPriority draws the scattered workload's service mix: 20% low,
// 60% normal, 20% high.
func genPriority(rng *rand.Rand) sched.Priority {
	switch r := rng.Intn(10); {
	case r < 2:
		return sched.PriorityLow
	case r < 8:
		return sched.PriorityNormal
	default:
		return sched.PriorityHigh
	}
}

type vodWorkload struct {
	spec    vodSpec
	in      vodInputs
	queries []string // per clip: the Select that finds it by title
	// lib is the synthesized library.  Trials only read clip content,
	// so every trial ingests the same values rather than synthesizing
	// them again; fullSetup times the synthesis.
	lib []*media.VideoValue
}

func newVodWorkload(spec vodSpec, seed int64) *vodWorkload {
	w := &vodWorkload{spec: spec, in: genVodInputs(spec, seed)}
	for k := 0; k < spec.clips; k++ {
		w.queries = append(w.queries, fmt.Sprintf(`select Clip where title = "clip-%d"`, k))
	}
	w.lib = w.library(nil, -1)
	return w
}

// library synthesizes every clip of the library from its seed.
func (w *vodWorkload) library(tr *tracer, parent int) []*media.VideoValue {
	lib := make([]*media.VideoValue, w.spec.clips)
	for k := range lib {
		sp := tr.begin("synth.clip", parent, "")
		lib[k] = synth.Video(media.TypeRawVideo30, synth.PatternMotion, clipW, clipH, clipDepth, w.spec.frames, w.in.clipSeeds[k])
		tr.end(sp)
	}
	return lib
}

// fullSetup times one set-up from nothing — synthesize the library,
// open the platform, ingest and place every clip — and discards the
// platform.
func (w *vodWorkload) fullSetup(tr *tracer) (time.Duration, error) {
	sp := tr.begin("setup", -1, "")
	defer tr.end(sp)
	t0 := time.Now()
	_, err := w.setup(arm{name: "setup", workers: nproc()}, w.library(tr, sp), tr, sp)
	return time.Since(t0), err
}

func (w *vodWorkload) offered() int { return w.spec.viewers }

func (w *vodWorkload) capacityGrid() (int, int, int) {
	return w.spec.capLo, w.spec.capHi, w.spec.capStep
}

// setup builds the platform and ingests the library: for each clip,
// create its object, set its title and video, and stripe it over the
// array.
func (w *vodWorkload) setup(a arm, lib []*media.VideoValue, tr *tracer, parent int) (*core.Database, error) {
	db, err := openPlatform("vod", a, tr, parent)
	if err != nil {
		return nil, err
	}
	if _, err := db.DefineClass("Clip", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "video", Kind: schema.KindMedia, MediaKind: media.KindVideo},
	}); err != nil {
		return nil, err
	}
	if err := db.CreateIndex("Clip", "title", query.HashIndex); err != nil {
		return nil, err
	}
	for k, v := range lib {
		sp := tr.begin("txn.newobject", parent, "")
		obj, err := db.NewObject("Clip")
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("txn.setattr", parent, "")
		err = db.SetAttr(obj.OID(), "title", schema.String(fmt.Sprintf("clip-%d", k)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("txn.setattr", parent, "")
		err = db.SetAttr(obj.OID(), "video", schema.Media(v))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("storage.place", parent, "")
		_, err = db.PlaceMediaStriped(obj.OID(), "video", clipQuality.DataRate(), stripeWidth)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// viewer is one started viewer session.
type viewer struct {
	idx     int
	in      viewerInput
	sess    *core.Session
	reader  *activities.VideoReader
	window  *activities.VideoWindow
	conn    *activity.Connection
	pb      *core.Playback
	startAt avtime.WorldTime
}

// startViewer runs one viewer's session start: Connect, find the clip
// with Select, Install the reader and window, Connect them over the
// LAN, BindValue the clip, Cue, Start.  On failure the session is
// closed again, releasing whatever it had reserved.
func (w *vodWorkload) startViewer(db *core.Database, i int, tr *tracer, parent int) (*viewer, error) {
	in := w.in.viewers[i]
	root := tr.begin("session.start", parent, "")
	defer tr.end(root)
	sp := tr.begin("core.connect", root, "")
	sess, err := db.Connect(fmt.Sprintf("viewer-%d", i), linkID)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sid := sess.ID()
	if tr != nil {
		tr.spans[root].Session = sid
		tr.spans[sp].Session = sid
	}
	v := &viewer{idx: i, in: in, sess: sess}
	fail := func(err error) (*viewer, error) {
		sess.Close()
		return nil, err
	}
	sp = tr.begin("query.select", root, sid)
	oids, err := db.Select(w.queries[in.clip])
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if len(oids) != 1 {
		return fail(fmt.Errorf("select clip-%d matched %d objects", in.clip, len(oids)))
	}
	if v.reader, err = activities.NewVideoReader("reader", activity.AtDatabase, media.TypeRawVideo30); err != nil {
		return fail(err)
	}
	v.window = activities.NewVideoWindow("window", activity.AtApplication, clipQuality, tolerance)
	sp = tr.begin("core.install", root, sid)
	err = sess.Install(v.reader, core.ResourcesForVideo(clipQuality))
	if err == nil {
		err = sess.Install(v.window, sched.Resources{})
	}
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	sp = tr.begin("core.connect_ports", root, sid)
	v.conn, err = sess.Connect(v.reader, "out", v.window, "in", viewerRate)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	sp = tr.begin("core.bind", root, sid)
	err = sess.BindValue(oids[0], "video", v.reader, "out", viewerRate)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if in.cueFrames > 0 {
		if err := v.reader.Cue(media.TypeRawVideo30.Rate.DurationOf(avtime.ObjectTime(in.cueFrames))); err != nil {
			return fail(err)
		}
	}
	sess.SetPriority(in.priority)
	v.startAt = db.Clock().Now()
	sp = tr.begin("core.start", root, sid)
	v.pb, err = sess.Start()
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	return v, nil
}

// trial plays the first n viewers once on a fresh platform.
func (w *vodWorkload) trial(n int, a arm, tr *tracer, hooks *playHooks) (*trial, error) {
	t := &trial{}
	root := tr.begin("trial."+a.name, -1, "")
	defer tr.end(root)

	sp := tr.begin("setup", root, "")
	db, err := w.setup(a, w.lib, tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	col := enableObs(db, a)
	if w.spec.scattered {
		db.Engine().EnableOverloadControl(sched.OverloadPolicy{})
	}

	// Co-admit every viewer: the engine holds still while they start,
	// then all of them play from the same first step.
	db.Engine().Pause()
	viewers := make([]*viewer, 0, n)
	audience := make([]int, w.spec.clips)
	sp = tr.begin("starts", root, "")
	for i := 0; i < n; i++ {
		attempted := w.attempted(w.in.viewers[i])
		t.starts++
		ts := time.Now()
		v, err := w.startViewer(db, i, tr, sp)
		el := time.Since(ts)
		if err != nil {
			if !refusal(err) {
				db.Engine().Resume()
				return nil, fmt.Errorf("viewer %d: %w", i, err)
			}
			t.failed++
			if isAdmission(err) {
				t.layers.admitRefused++
			}
			t.frames.add(frames{attempted: attempted, refused: attempted})
			continue
		}
		t.startUs = append(t.startUs, float64(el.Nanoseconds())/1e3)
		viewers = append(viewers, v)
		audience[v.in.clip]++
	}
	tr.end(sp)

	sp = tr.begin("playback", root, "")
	meter := beginPlay(hooks)
	db.Engine().Resume()
	stats := make([]*activity.RunStats, len(viewers))
	for i, v := range viewers {
		if stats[i], err = v.pb.Wait(); err != nil {
			endPlay(hooks, meter, t)
			return nil, fmt.Errorf("viewer %d playback: %w", v.idx, err)
		}
	}
	endPlay(hooks, meter, t)
	tr.end(sp)

	fp := newFingerprint()
	period := media.TypeRawVideo30.Rate
	for i, v := range viewers {
		st := stats[i]
		attempted := w.attempted(v.in)
		shown := int64(v.window.FramesShown())
		missed := int64(v.window.Monitor().Misses())
		lost := int64(v.reader.FramesLost()) + st.ChunksDropped
		if shown+lost != attempted {
			return nil, fmt.Errorf("viewer %d: %d frames shown + %d lost != %d attempted", v.idx, shown, lost, attempted)
		}
		t.frames.add(frames{attempted: attempted, delivered: shown - missed, missed: missed, lost: lost})
		t.sinkFrames += shown
		t.layers.ticks += int64(st.Ticks)
		t.layers.chunks += st.Chunks
		t.layers.dropped += st.ChunksDropped
		t.layers.netBytes += v.conn.BytesCarried()
		if nc := v.conn.Network(); nc != nil {
			t.layers.netMessages += nc.Messages()
		}
		cs := v.sess.CacheStats()
		if audience[v.in.clip] >= 2 {
			t.layers.cohortHits += cs.Hits
			t.layers.cohortReads += cs.Hits + cs.Misses
		}
		var arrSum int64
		for k, at := range v.window.Arrivals() {
			arrSum += int64(at)
			if lost == 0 {
				due := v.startAt + period.DurationOf(avtime.ObjectTime(k))
				t.layers.latenessMs = append(t.layers.latenessMs, float64(at-due)/float64(avtime.Millisecond))
			}
		}
		fp.add(int64(v.idx), st.BytesMoved, int64(st.Ticks), shown, missed, lost,
			int64(v.window.Monitor().MaxLateness()), arrSum, cs.Hits, cs.Misses, cs.Shared)
	}
	t.layers.engine = db.Engine().Stats()
	sp = tr.begin("closes", root, "")
	for _, v := range viewers {
		c := tr.begin("core.close", sp, v.sess.ID())
		err := v.sess.Close()
		tr.end(c)
		if err != nil {
			return nil, fmt.Errorf("viewer %d close: %w", v.idx, err)
		}
	}
	tr.end(sp)
	t.layers.io = db.MediaIOStats()
	t.layers.pool = db.Storage().PoolStats()
	fp.add(int64(t.failed))
	fp.addIO(t.layers.io)
	fp.addPool(t.layers.pool)
	t.fp = fp.sum()
	snapshotObs(col, t, tr, root)
	return t, nil
}
