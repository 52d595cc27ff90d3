package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/query"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/synth"
)

// The studio: each session is an 8-camera graph.  Every camera is a
// digitizer over a seeded animation, feeding an inter-frame encoder
// whose output fans out to a preview (decoder then window, across the
// LAN) and to a recording writer bound to a take slot placed on disk.
const (
	camW, camH, camDepth = 320, 240, 8
	cameras              = 8
	studioSessions       = 2
	studioFrames         = 15 // frames each camera captures per playback
	studioGOP            = 10
	studioQuant          = 2
	studioBalls          = 6
	prerollFrames        = 2 // frames in a take slot's placed pre-roll

	// encodedRate is the bandwidth reserved for one camera's encoded
	// stream, on the LAN to the preview and on the recording disk.
	encodedRate = 1200 * media.KBPerSecond

	// studioStarts is how many session starts one start storm times,
	// so each storm's start-time tail rests on enough samples;
	// studioStorms is how many storms a run makes.
	studioStarts = 1000
	studioStorms = 9
	stormSize    = 4 // sessions started together in one storm round
)

var camQuality = media.VideoQuality{Width: camW, Height: camH, Depth: camDepth, FPS: clipFPS}

// studioInputs is everything random about the studio: the seed of each
// camera's animation, per session slot.
type studioInputs struct {
	animSeeds [][]int64 // [session][camera]
}

const studioCapHi = 12

func genStudioInputs(seed int64) studioInputs {
	rng := rand.New(rand.NewSource(seed))
	in := studioInputs{animSeeds: make([][]int64, studioCapHi)}
	for s := range in.animSeeds {
		in.animSeeds[s] = make([]int64, cameras)
		for c := range in.animSeeds[s] {
			in.animSeeds[s][c] = rng.Int63()
		}
	}
	return in
}

type studioWorkload struct {
	in studioInputs
}

func newStudioWorkload(seed int64) *studioWorkload {
	return &studioWorkload{in: genStudioInputs(seed)}
}

func (w *studioWorkload) offered() int { return studioSessions }

func (w *studioWorkload) capacityGrid() (int, int, int) { return 1, studioCapHi, 1 }

func takeTitle(s, c int) string { return fmt.Sprintf("studio-%d/cam-%d", s, c) }

// setup builds the platform and one take slot per camera of n
// sessions: render a pre-roll from the camera's animation, encode it,
// create the take object, and place it on one disk.
func (w *studioWorkload) setup(n int, a arm, tr *tracer, parent int) (*core.Database, error) {
	db, err := openPlatform("studio", a, tr, parent)
	if err != nil {
		return nil, err
	}
	if _, err := db.DefineClass("Take", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "video", Kind: schema.KindMedia, MediaKind: media.KindVideo},
		{Name: "frames", Kind: schema.KindInt},
		{Name: "bytes", Kind: schema.KindInt},
	}); err != nil {
		return nil, err
	}
	if err := db.CreateIndex("Take", "title", query.HashIndex); err != nil {
		return nil, err
	}
	enc := &codec.Inter{Quant: studioQuant, GOPN: studioGOP}
	for s := 0; s < n; s++ {
		for c := 0; c < cameras; c++ {
			sp := tr.begin("synth.clip", parent, "")
			raw := synth.NewAnimation(camW, camH, studioBalls, w.in.animSeeds[s][c]).
				RenderVideo(media.TypeRawVideo30, camDepth, prerollFrames)
			tr.end(sp)
			sp = tr.begin("codec.encode", parent, "")
			preroll, err := enc.Encode(raw)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("txn.newobject", parent, "")
			obj, err := db.NewObject("Take")
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("txn.setattr", parent, "")
			err = db.SetAttr(obj.OID(), "title", schema.String(takeTitle(s, c)))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("txn.setattr", parent, "")
			err = db.SetAttr(obj.OID(), "video", schema.Media(preroll))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("storage.place", parent, "")
			_, err = db.PlaceMedia(obj.OID(), "video", fmt.Sprintf("disk%d", (s*cameras+c)%numDisks), encodedRate)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// fullSetup times one set-up of the offered sessions' take slots from
// nothing and discards the platform.
func (w *studioWorkload) fullSetup(tr *tracer) (time.Duration, error) {
	sp := tr.begin("setup", -1, "")
	defer tr.end(sp)
	t0 := time.Now()
	_, err := w.setup(studioSessions, arm{name: "setup", workers: nproc()}, tr, sp)
	return time.Since(t0), err
}

// camera is one started camera lane of a studio session.
type camera struct {
	take    schema.OID
	window  *activities.VideoWindow
	writer  *activities.VideoWriter
	preview *activity.Connection
}

// studioSession is one started studio session.
type studioSession struct {
	idx     int
	sess    *core.Session
	cams    []camera
	pb      *core.Playback
	startAt avtime.WorldTime
}

// startStudio runs one studio session's start: Connect, Select each
// camera's take slot, Install the 40 activities, wire them, BindValue
// each writer to its take, Start.  frames bounds each digitizer.
func (w *studioWorkload) startStudio(db *core.Database, s, frames int, tr *tracer, parent int) (*studioSession, error) {
	root := tr.begin("session.start", parent, "")
	defer tr.end(root)
	sp := tr.begin("core.connect", root, "")
	sess, err := db.Connect(fmt.Sprintf("studio-%d", s), linkID)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sid := sess.ID()
	if tr != nil {
		tr.spans[root].Session = sid
		tr.spans[sp].Session = sid
	}
	ss := &studioSession{idx: s, sess: sess}
	fail := func(err error) (*studioSession, error) {
		sess.Close()
		return nil, err
	}
	for c := 0; c < cameras; c++ {
		sp = tr.begin("query.select", root, sid)
		oids, err := db.Select(fmt.Sprintf(`select Take where title = %q`, takeTitle(s, c)))
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
		if len(oids) != 1 {
			return fail(fmt.Errorf("select %s matched %d objects", takeTitle(s, c), len(oids)))
		}
		cam, err := w.buildCamera(sess, s, c, frames, oids[0], tr, root)
		if err != nil {
			return fail(err)
		}
		ss.cams = append(ss.cams, cam)
	}
	ss.startAt = db.Clock().Now()
	sp = tr.begin("core.start", root, sid)
	ss.pb, err = sess.Start()
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	return ss, nil
}

// buildCamera installs and wires one camera lane and binds its writer
// to the take slot.
func (w *studioWorkload) buildCamera(sess *core.Session, s, c, frames int, take schema.OID, tr *tracer, parent int) (camera, error) {
	cam := camera{take: take}
	anim := synth.NewAnimation(camW, camH, studioBalls, w.in.animSeeds[s][c])
	gen := func(int) *media.Frame { return anim.Render(camDepth) }
	dig, err := activities.NewVideoDigitizer(fmt.Sprintf("cam%d", c), activity.AtDatabase, gen, frames)
	if err != nil {
		return cam, err
	}
	se, err := codec.NewInterStreamEncoder(studioQuant, studioGOP)
	if err != nil {
		return cam, err
	}
	enc, err := activities.NewVideoEncoder(fmt.Sprintf("enc%d", c), activity.AtDatabase, codec.TypeMPEGVideo, se)
	if err != nil {
		return cam, err
	}
	sd, err := codec.NewVideoStreamDecoder(camW, camH, camDepth, studioQuant)
	if err != nil {
		return cam, err
	}
	dec, err := activities.NewVideoDecoder(fmt.Sprintf("dec%d", c), activity.AtApplication, codec.TypeMPEGVideo, sd)
	if err != nil {
		return cam, err
	}
	cam.window = activities.NewVideoWindow(fmt.Sprintf("preview%d", c), activity.AtApplication, camQuality, tolerance)
	if cam.writer, err = activities.NewVideoWriter(fmt.Sprintf("rec%d", c), activity.AtDatabase, codec.TypeMPEGVideo); err != nil {
		return cam, err
	}
	sid := sess.ID()
	sp := tr.begin("core.install", parent, sid)
	for _, in := range []struct {
		a   activity.Activity
		res sched.Resources
	}{
		{dig, core.ResourcesForVideo(camQuality)},
		{enc, core.ResourcesForVideo(camQuality)},
		{dec, sched.Resources{}},
		{cam.window, sched.Resources{}},
		{cam.writer, sched.Resources{Buffers: 1, CPU: encodedRate, Bus: encodedRate}},
	} {
		if err = sess.Install(in.a, in.res); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil {
		return cam, err
	}
	sp = tr.begin("core.connect_ports", parent, sid)
	if _, err = sess.Connect(dig, "out", enc, "in", 0); err == nil {
		if cam.preview, err = sess.Connect(enc, "out", dec, "in", encodedRate); err == nil {
			if _, err = sess.Connect(dec, "out", cam.window, "in", 0); err == nil {
				_, err = sess.Connect(enc, "out", cam.writer, "in", 0)
			}
		}
	}
	tr.end(sp)
	if err != nil {
		return cam, err
	}
	sp = tr.begin("core.bind", parent, sid)
	err = sess.BindValue(take, "video", cam.writer, "in", encodedRate)
	tr.end(sp)
	return cam, err
}

// trial plays n studio sessions once on a fresh platform and checks
// the takes in.
func (w *studioWorkload) trial(n int, a arm, tr *tracer, hooks *playHooks) (*trial, error) {
	t := &trial{}
	root := tr.begin("trial."+a.name, -1, "")
	defer tr.end(root)

	sp := tr.begin("setup", root, "")
	db, err := w.setup(n, a, tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	col := enableObs(db, a)

	db.Engine().Pause()
	var sessions []*studioSession
	sp = tr.begin("starts", root, "")
	perSession := int64(2 * cameras * studioFrames) // a window and a writer per camera
	for s := 0; s < n; s++ {
		t.starts++
		ts := time.Now()
		ss, err := w.startStudio(db, s, studioFrames, tr, sp)
		el := time.Since(ts)
		if err != nil {
			if !refusal(err) {
				db.Engine().Resume()
				return nil, fmt.Errorf("studio session %d: %w", s, err)
			}
			t.failed++
			if isAdmission(err) {
				t.layers.admitRefused++
			}
			t.frames.add(frames{attempted: perSession, refused: perSession})
			continue
		}
		t.startUs = append(t.startUs, float64(el.Nanoseconds())/1e3)
		sessions = append(sessions, ss)
	}
	tr.end(sp)

	sp = tr.begin("playback", root, "")
	meter := beginPlay(hooks)
	db.Engine().Resume()
	stats := make([]*activity.RunStats, len(sessions))
	for i, ss := range sessions {
		if stats[i], err = ss.pb.Wait(); err != nil {
			endPlay(hooks, meter, t)
			return nil, fmt.Errorf("studio session %d playback: %w", ss.idx, err)
		}
	}
	endPlay(hooks, meter, t)
	tr.end(sp)

	fp := newFingerprint()
	period := media.TypeRawVideo30.Rate
	for i, ss := range sessions {
		st := stats[i]
		var shown, missed, recorded int64
		for c, cam := range ss.cams {
			camShown := int64(cam.window.FramesShown())
			camMissed := int64(cam.window.Monitor().Misses())
			var encBytes int64
			for _, el := range cam.writer.Collected() {
				encBytes += el.Size()
			}
			camRecorded := int64(len(cam.writer.Collected()))
			shown += camShown
			missed += camMissed
			recorded += camRecorded
			t.layers.encodedBytes += encBytes
			t.layers.rawBytes += camRecorded * camQuality.FrameSize()
			t.layers.netBytes += cam.preview.BytesCarried()
			if nc := cam.preview.Network(); nc != nil {
				t.layers.netMessages += nc.Messages()
			}
			var arrSum int64
			for k, at := range cam.window.Arrivals() {
				arrSum += int64(at)
				if st.ChunksDropped == 0 {
					due := ss.startAt + period.DurationOf(avtime.ObjectTime(k))
					t.layers.latenessMs = append(t.layers.latenessMs, float64(at-due)/float64(avtime.Millisecond))
				}
			}
			fp.add(int64(ss.idx), int64(c), camShown, camMissed, camRecorded, encBytes,
				int64(cam.window.Monitor().MaxLateness()), arrSum)
		}
		// Each dropped chunk costs one downstream sink its frame.
		if shown+recorded+st.ChunksDropped != perSession {
			return nil, fmt.Errorf("studio session %d: %d shown + %d recorded + %d dropped != %d attempted",
				ss.idx, shown, recorded, st.ChunksDropped, perSession)
		}
		t.frames.add(frames{attempted: perSession, delivered: shown - missed + recorded, missed: missed, lost: st.ChunksDropped})
		t.sinkFrames += shown + recorded
		t.layers.ticks += int64(st.Ticks)
		t.layers.chunks += st.Chunks
		t.layers.dropped += st.ChunksDropped
		fp.add(st.BytesMoved, int64(st.Ticks))
	}
	t.layers.engine = db.Engine().Stats()

	// Check the takes in: record each take's length and size on its
	// object, then read them back.
	sp = tr.begin("checkin", root, "")
	for _, ss := range sessions {
		for _, cam := range ss.cams {
			var encBytes int64
			for _, el := range cam.writer.Collected() {
				encBytes += el.Size()
			}
			if err := w.checkIn(db, cam.take, int64(len(cam.writer.Collected())), encBytes, tr, sp); err != nil {
				return nil, err
			}
		}
	}
	tr.end(sp)

	sp = tr.begin("closes", root, "")
	for _, ss := range sessions {
		c := tr.begin("core.close", sp, ss.sess.ID())
		err := ss.sess.Close()
		tr.end(c)
		if err != nil {
			return nil, fmt.Errorf("studio session %d close: %w", ss.idx, err)
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

func (w *studioWorkload) checkIn(db *core.Database, take schema.OID, n, size int64, tr *tracer, parent int) error {
	sp := tr.begin("txn.setattr", parent, "")
	err := db.SetAttr(take, "frames", schema.Int(n))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("txn.setattr", parent, "")
	err = db.SetAttr(take, "bytes", schema.Int(size))
	tr.end(sp)
	if err != nil {
		return err
	}
	got, err := db.GetAttr(take, "frames")
	if err != nil {
		return err
	}
	if got.IntVal() != n {
		return fmt.Errorf("take %v checked in %d frames, reads back %d", take, n, got.IntVal())
	}
	return nil
}

// startStorm times studio session starts alone: rounds of stormSize
// sessions start on a paused engine, are stopped before their first
// tick, and close again, until want samples are taken.  It returns the
// per-start host times.
func (w *studioWorkload) startStorm(want int, tr *tracer) ([]float64, int, error) {
	a := arm{name: "storm", workers: nproc()}
	sp := tr.begin("storm", -1, "")
	defer tr.end(sp)
	db, err := w.setup(stormSize, a, tr, sp)
	if err != nil {
		return nil, 0, fmt.Errorf("storm setup: %w", err)
	}
	// Start from a collected heap, as a vod playback's starts do right
	// after its setup, so earlier probes' garbage does not land in the
	// start-time tail.
	runtime.GC()
	var samples []float64
	attempted := 0
	for len(samples) < want {
		db.Engine().Pause()
		var round []*studioSession
		for s := 0; s < stormSize; s++ {
			attempted++
			ts := time.Now()
			ss, err := w.startStudio(db, s, studioFrames, tr, sp)
			el := time.Since(ts)
			if err != nil {
				db.Engine().Resume()
				return nil, attempted, fmt.Errorf("storm session %d: %w", s, err)
			}
			samples = append(samples, float64(el.Nanoseconds())/1e3)
			round = append(round, ss)
		}
		for _, ss := range round {
			if err := ss.pb.Stop(); err != nil {
				db.Engine().Resume()
				return nil, attempted, err
			}
		}
		db.Engine().Resume()
		for _, ss := range round {
			if err := ss.sess.Close(); err != nil {
				return nil, attempted, err
			}
		}
	}
	return samples, attempted, nil
}
