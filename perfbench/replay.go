package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/live"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/xmlio"
)

// replay re-runs a seeded sample of the traced ops, in order, through
// the public functions the handlers call, timing each call. Reads go to
// the set-up store (not through the server); streams go to a scratch
// store of their own, so nothing the server holds is disturbed.
type replay struct {
	e        *env
	in       *inputs
	skel     label.Labeling
	scratch  *store.Store
	sessions map[int]*replaySession
	lru      []int // corpus runs the server's cache would hold, most recent first
	live     map[string]*live.Session
	samples  map[string][]float64
}

type replaySession struct {
	sess  *store.Session
	namer *run.Namer
}

func newReplay(e *env, in *inputs) (*replay, error) {
	skel, err := e.raw.Skeleton(label.TCM{})
	if err != nil {
		return nil, err
	}
	scratch, err := store.NewMem(e.sp, specName)
	if err != nil {
		return nil, err
	}
	return &replay{
		e: e, in: in, skel: skel, scratch: scratch,
		sessions: make(map[int]*replaySession),
		live:     make(map[string]*live.Session),
		samples:  make(map[string][]float64),
	}, nil
}

func (rp *replay) record(metric string, v float64) {
	rp.samples[metric] = append(rp.samples[metric], v)
}

// timed runs f and records its duration in µs under metric.
func (rp *replay) timed(metric string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	rp.record(metric, micros(d))
	return d
}

// touch moves corpus run i to the front of the emulated session cache
// and reports whether the server would have had to load it.
func (rp *replay) touch(i int) bool {
	for j, r := range rp.lru {
		if r == i {
			copy(rp.lru[1:j+1], rp.lru[:j])
			rp.lru[0] = i
			return false
		}
	}
	rp.lru = append([]int{i}, rp.lru...)
	if len(rp.lru) > cacheSize {
		rp.lru = rp.lru[:cacheSize]
	}
	return true
}

// load replays one cache-miss load of corpus run i: Store.OpenRun and
// NewNamer as the server calls them, then OpenRun's steps one by one.
// It returns the time the server's load path would take.
func (rp *replay) load(i int) (time.Duration, error) {
	name := rp.in.runNames[i]
	var rs replaySession
	var err error
	d := rp.timed("store.open_run_us", func() { rs.sess, err = rp.e.raw.OpenRun(name, label.TCM{}) })
	if err != nil {
		return 0, err
	}
	d += rp.timed("run.namer_build_us", func() { rs.namer = run.NewNamer(rs.sess.Run) })
	rp.sessions[i] = &rs

	b := rp.e.raw.Backend()
	doc, err := readBlob(b.ReadRun, name)
	if err != nil {
		return 0, err
	}
	labels, err := readBlob(b.ReadLabels, name)
	if err != nil {
		return 0, err
	}
	rp.timed("xmlio.decode_run_us", func() { _, _, err = xmlio.DecodeRun(bytes.NewReader(doc), rp.e.sp) })
	if err != nil {
		return 0, err
	}
	var snap *core.Snapshot
	rp.timed("core.snapshot_decode_us", func() { snap, err = core.DecodeSnapshot(labels) })
	if err != nil {
		return 0, err
	}
	rp.timed("core.bind_us", func() { _, err = snap.Bind(rp.skel) })
	return d, err
}

func readBlob(open func(string) (io.ReadCloser, error), name string) ([]byte, error) {
	rc, err := open(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// session returns the replay's session of corpus run i, opening it
// untimed when the timed load was not part of the sample.
func (rp *replay) session(i int) (*replaySession, error) {
	if rs, ok := rp.sessions[i]; ok {
		return rs, nil
	}
	sess, err := rp.e.raw.OpenRun(rp.in.runNames[i], label.TCM{})
	if err != nil {
		return nil, err
	}
	rs := &replaySession{sess: sess, namer: run.NewNamer(sess.Run)}
	rp.sessions[i] = rs
	return rs, nil
}

// vertex resolves a reference the way the request sent it.
func (rp *replay) vertex(rs *replaySession, run int, v int32, byName bool) dag.VertexID {
	if byName {
		u, _ := rs.namer.Vertex(rp.in.names[run][v])
		return u
	}
	return dag.VertexID(v)
}

// op replays one op and returns the time its layers took. A read that
// the server's cache would miss replays the load too.
func (rp *replay) op(o *op, miss bool, d *sender) (time.Duration, error) {
	if o.kind.isRead() {
		var spent time.Duration
		if miss {
			ld, err := rp.load(o.run)
			if err != nil {
				return 0, err
			}
			spent += ld
		}
		rs, err := rp.session(o.run)
		if err != nil {
			return 0, err
		}
		q, err := rp.query(o, rs, d)
		return spent + q, err
	}
	switch o.kind {
	case opPut:
		return rp.put(d.bodies[o.run])
	case opStream:
		return rp.stream(o, d)
	}
	return 0, nil
}

func (rp *replay) query(o *op, rs *replaySession, d *sender) (time.Duration, error) {
	labels := rs.sess.Labels
	start := time.Now()
	switch o.kind {
	case opReachable:
		u := rp.vertex(rs, o.run, o.from, o.fromName)
		v := rp.vertex(rs, o.run, o.to, o.toName)
		labels.Reachable(u, v)
	case opBatch:
		names := rp.in.names[o.run]
		pairs := make([][2]dag.VertexID, len(o.pairs))
		t0 := time.Now()
		for i, p := range o.pairs {
			u, _ := rs.namer.VertexBytes([]byte(names[p[0]]))
			v, _ := rs.namer.VertexBytes([]byte(names[p[1]]))
			pairs[i] = [2]dag.VertexID{u, v}
		}
		t1 := time.Now()
		labels.AppendReachableBatch(nil, pairs, 0)
		t2 := time.Now()
		rp.record("run.namer_lookup_ns", float64(t1.Sub(t0).Nanoseconds())/float64(2*len(pairs)))
		rp.record("core.batch_ns_per_pair", float64(t2.Sub(t1).Nanoseconds())/float64(len(pairs)))
	case opLineage:
		v := rp.vertex(rs, o.run, o.from, o.fromName)
		rp.timed("lineage.cone_us", func() {
			if o.down {
				lineage.DownstreamByLabels(labels, v)
			} else {
				lineage.UpstreamByLabels(labels, v)
			}
		})
	case opRPQ:
		var prog *rpq.Prog
		var err error
		rp.timed("rpq.compile_us", func() { prog, err = rpq.Compile(d.pats[o.pattern], rp.e.lookupModule) })
		if err != nil {
			return 0, err
		}
		m := rpq.NewMatcher(prog, 0)
		r := rs.sess.Run
		rp.timed("rpq.eval_us", func() {
			_, err = m.Eval(r.Graph, r.Origin, labels.Reachable, dag.VertexID(o.from), dag.VertexID(o.to))
		})
		if err != nil {
			return 0, err
		}
		rp.record("rpq.dfa_states", float64(m.NumDFAStates()))
	}
	return time.Since(start), nil
}

// put replays PUT /runs/{name} up to the backend write: decode the
// body, label the run, encode the document and the label snapshot.
func (rp *replay) put(body []byte) (time.Duration, error) {
	var (
		r   *run.Run
		l   *core.Labeling
		err error
		buf bytes.Buffer
	)
	d := rp.timed("xmlio.decode_run_us", func() { r, _, err = xmlio.DecodeRun(bytes.NewReader(body), rp.e.sp) })
	if err != nil {
		return 0, err
	}
	d += rp.timed("core.label_run_us", func() { l, err = core.LabelRun(r, rp.skel) })
	if err != nil {
		return 0, err
	}
	d += rp.timed("xmlio.encode_run_us", func() { err = xmlio.EncodeRun(&buf, r, nil, specName) })
	if err != nil {
		return 0, err
	}
	buf.Reset()
	d += rp.timed("core.snapshot_encode_us", func() { _, err = l.WriteTo(&buf) })
	return d, err
}

// stream replays one stream step on the scratch store. A stream whose
// cycle began before the sample is skipped until its next cycle.
func (rp *replay) stream(o *op, d *sender) (time.Duration, error) {
	ls := rp.live[o.name]
	switch {
	case o.step == 0:
		ls = live.NewSession(rp.scratch, o.name, rp.skel, nil)
		rp.live[o.name] = ls
	case ls == nil:
		return 0, nil
	}
	var err error
	switch {
	case o.isAppend():
		b := d.streams[o.script][o.step]
		evs, perr := events.ReadLog(bytes.NewReader(b.Body))
		if perr != nil {
			return 0, perr
		}
		spent := rp.timed("live.append_us", func() { _, err = ls.Append(evs, b.Offset) })
		if err == nil && ls.SinceCheckpoint() >= checkpointEvery {
			spent += rp.timed("live.checkpoint_us", func() { err = ls.Checkpoint() })
		}
		return spent, err
	case o.isFinish():
		return rp.timed("live.finish_us", func() { _, err = ls.Finish(label.TCM{}) }), err
	}
	delete(rp.live, o.name)
	if err := rp.scratch.DeleteRun(o.name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	return 0, nil
}

// runReplay replays the traced outcomes: first the traced phase, until
// 60% of the time to the deadline has passed, then the probe, which
// reaches every layer, until the deadline. In each it samples reads and
// PUTs with a seeded coin so that about target ops are replayed, and
// keeps every stream step so cycles stay whole. before are the ops the
// server saw earlier in the run; they only advance the emulated session
// cache. It returns the samples and, over the replayed ops the handler
// timed, the layer time and the handler time.
func runReplay(e *env, in *inputs, d *sender, warm bool, before, traced, probe []*outcome,
	seed int64, target int, deadline time.Time) (map[string][]float64, time.Duration, time.Duration, error) {
	rp, err := newReplay(e, in)
	if err != nil {
		return nil, 0, 0, err
	}
	if warm {
		for i := range in.runNames {
			rp.touch(i)
			if _, err := rp.load(i); err != nil {
				return nil, 0, 0, fmt.Errorf("replaying warm-up load: %w", err)
			}
		}
	}
	for _, out := range before {
		if out.op.kind.isRead() {
			rp.touch(out.op.run)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var layer, handler time.Duration
	split := time.Now().Add(time.Until(deadline) * 6 / 10)
	for _, seg := range []struct {
		outs []*outcome
		end  time.Time
	}{{traced, split}, {probe, deadline}} {
		p := float64(target) / float64(len(seg.outs)+1)
		for _, out := range seg.outs {
			o := out.op
			miss := o.kind.isRead() && rp.touch(o.run)
			if time.Now().After(seg.end) || (o.kind != opStream && rng.Float64() >= p) {
				continue
			}
			spent, err := rp.op(o, miss, d)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("replaying %s op %d: %w", o.kind, o.seq, err)
			}
			if h, ok := e.th.handled(o.seq); ok && out.ok {
				layer += spent
				handler += h
			}
		}
	}
	return rp.samples, layer, handler, nil
}
