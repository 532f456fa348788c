package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run sets the service up; setup_s is the
// median, and the last set-up is the one the workload runs on.
const setupReps = 3

// rounds is how many rounds an untraced run makes. Each round gives
// serialShare of its time to one client, closedShare to nproc clients
// and the rest to the probe.
const (
	rounds      = 10
	serialShare = 0.45
	closedShare = 0.35
)

// replayTarget is about how many ops of the traced phase, and of the
// probe, the replay samples.
const replayTarget = 1000

// metricDecl declares one reported metric. The two lists below are what
// the benchmark prints; BENCHMARK.json names the same metrics.
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p75_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"put_p75_ms", "ms"},
	{"stream_p50_ms", "ms"},
	{"stream_p75_ms", "ms"},
	{"max_rps", "req/s"},
	{"success_frac", "ratio"},
	{"stored_bytes_per_vertex", "B"},
	{"heap_mb", "MiB"},
}

var perLayer = []metricDecl{
	{"server.handler_us", "us"},
	{"server.transport_us", "us"},
	{"server.reachable_us", "us"},
	{"server.batch_us", "us"},
	{"server.lineage_us", "us"},
	{"server.rpq_us", "us"},
	{"server.put_us", "us"},
	{"server.events_us", "us"},
	{"server.finish_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.cache_invalidations", "count"},
	{"server.admission_rejected", "count"},
	{"server.peak_inflight", "count"},
	{"store.read_us", "us"},
	{"store.bytes_read_per_load", "B"},
	{"store.write_us", "us"},
	{"store.write_amp", "ratio"},
	{"store.append_us", "us"},
	{"store.open_run_us", "us"},
	{"xmlio.decode_run_us", "us"},
	{"xmlio.encode_run_us", "us"},
	{"core.snapshot_decode_us", "us"},
	{"core.bind_us", "us"},
	{"core.label_run_us", "us"},
	{"core.snapshot_encode_us", "us"},
	{"core.batch_ns_per_pair", "ns"},
	{"run.namer_build_us", "us"},
	{"run.namer_lookup_ns", "ns"},
	{"lineage.cone_us", "us"},
	{"rpq.compile_us", "us"},
	{"rpq.eval_us", "us"},
	{"rpq.dfa_states", "count"},
	{"live.append_us", "us"},
	{"live.checkpoint_us", "us"},
	{"live.finish_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.layer_share", "ratio"},
}

// report collects metric values with their sample counts.
type report struct {
	decls   []metricDecl
	metrics map[string]metric
	counts  map[string]int
}

func newReport(decls []metricDecl) *report {
	return &report{decls: decls, metrics: make(map[string]metric), counts: make(map[string]int)}
}

func (r *report) set(name string, v float64, n int) {
	for _, d := range r.decls {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			r.counts[name] = n
			return
		}
	}
	panic("undeclared metric " + name)
}

func (r *report) quantile(name string, xs []float64, q float64) {
	r.set(name, quantile(xs, q), len(xs))
}

// finish prints every metric with its unit and sample count to stderr
// and returns the metrics, failing when a declared one is missing.
func (r *report) finish() (map[string]metric, error) {
	for _, d := range r.decls {
		m, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		logf("%-28s %14.6g %-6s n=%d", d.name, m.Value, d.unit, r.counts[d.name])
	}
	return r.metrics, nil
}

// quantile returns the q-quantile of xs by nearest rank, or 0 when xs
// is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts attempted requests, failures and wrong answers.
type tally struct {
	attempted, failed, wrong int64
	firstWrong               string
}

// record counts one request; failure is "" when it succeeded, and
// describes it otherwise.
func (t *tally) record(failure string, wrong bool) {
	t.attempted++
	if failure == "" {
		return
	}
	t.failed++
	if wrong {
		t.wrong++
		if t.firstWrong == "" {
			t.firstWrong = failure
		}
	}
	if t.failed <= 3 {
		logf("failed: %s", failure)
	}
}

// failure classifies an answer: a transport error, a 429 or a 5xx is a
// failure; an answer check finds wrong is a failure and a wrong answer.
func failure(out *outcome, check func() string) (string, bool) {
	switch {
	case out.err != nil:
		return out.err.Error(), false
	case out.status == http.StatusTooManyRequests || out.status >= 500:
		return fmt.Sprintf("status %d %.120s", out.status, out.body), false
	}
	msg := check()
	return msg, msg != ""
}

// bench is one run of one workload.
type bench struct {
	wl    *workload
	seed  int64
	total time.Duration

	tr    *http.Transport
	e     *env
	or    *oracle
	in    *inputs
	gen   *generator
	d     *sender
	tally tally
}

// share returns frac of the run's measured time.
func (b *bench) share(frac float64) time.Duration {
	return time.Duration(frac * float64(b.total))
}

// prepare sets the service up reps times and returns each set-up's
// seconds, keeping the last set-up; then it builds the oracle and the
// generator, outside the set-up timing.
func (b *bench) prepare(ctx context.Context, reps int, traceLoads bool) ([]float64, error) {
	workers := runtime.NumCPU() // as at process start, before pinToOneCPU
	b.tr = &http.Transport{
		MaxIdleConnsPerHost: workers + 1,
		MaxConnsPerHost:     workers + 1,
		DisableCompression:  true,
	}
	client := &http.Client{Transport: b.tr, Timeout: time.Minute}
	var times []float64
	for i := 0; i < reps; i++ {
		if b.e != nil {
			b.e.close()
			b.tr.CloseIdleConnections()
			b.e = nil
		}
		runtime.GC()
		t0 := time.Now()
		e, err := setup(ctx, b.wl, b.seed, client, traceLoads)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		b.e = e
	}
	or, err := buildOracle(b.wl, b.e, b.seed)
	if err != nil {
		return nil, err
	}
	b.or = or
	b.in = &inputs{
		patterns:  len(b.e.patterns),
		putBodies: len(b.e.putBodies),
	}
	for _, script := range b.e.streams {
		b.in.appends = append(b.in.appends, len(script))
	}
	for i, r := range b.e.corpus.Runs {
		b.in.runNames = append(b.in.runNames, r.Name)
		b.in.runVertices = append(b.in.runVertices, r.Vertices)
		b.in.names = append(b.in.names, or.corpus[i].names)
		b.in.unique = append(b.in.unique, or.corpus[i].unique)
	}
	b.gen = newGenerator(b.wl, b.in, b.seed+10)
	b.d = &sender{base: b.e.base, client: client, workers: workers, in: b.in,
		bodies: b.e.putBodies, streams: b.e.streams, pats: b.e.patterns}
	return times, nil
}

// shutdown stops the server and drops the client's connections.
func (b *bench) shutdown() {
	if b.e != nil {
		b.e.close()
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
	}
}

// check compares every answer of the phase with the oracle, counts it,
// and frees the kept bodies.
func (b *bench) check(ph *phase) {
	for _, out := range ph.outs {
		msg, wrong := failure(out, func() string { return b.or.check(out.op, out.status, out.body) })
		out.ok = msg == ""
		if !out.ok {
			msg = fmt.Sprintf("%s %s op %d on %s: %s", ph.name, out.op.kind, out.op.seq, out.op.name, msg)
		}
		b.tally.record(msg, wrong)
		out.body = nil
	}
}

// finalCheck asks every write name and every finished stream, after
// the traffic, a seeded sample of queries and compares the answers with
// the oracle of what the name should hold.
func (b *bench) finalCheck(ctx context.Context) {
	stored, finished := b.gen.finalState()
	rng := rand.New(rand.NewSource(b.seed + 4))
	start := time.Now()
	ask := func(name string, or *oracleRun) {
		pairs := make([][2]int32, 64)
		n := len(or.unique)
		for i := range pairs {
			pairs[i] = [2]int32{or.unique[rng.Intn(n)], or.unique[rng.Intn(n)]}
		}
		out := b.d.send(ctx, start, -1, request{method: http.MethodPost, path: "/batch",
			body: batchBody(name, or.names, pairs)}, "bench-final")
		b.tallyFinal(out, name, func() string { return or.checkBatch(pairs, out.body) })
		v := or.unique[rng.Intn(n)]
		out = b.d.send(ctx, start, -1, request{method: http.MethodGet,
			path: "/lineage?run=" + name + "&vertex=" + or.names[v]}, "bench-final")
		b.tallyFinal(out, name, func() string { return or.checkLineage(v, false, out.body) })
	}
	for i := 0; i < writeNames; i++ {
		name := writeName(i)
		if body, ok := stored[name]; ok {
			ask(name, b.or.puts[body])
			continue
		}
		out := b.d.send(ctx, start, -1, request{method: http.MethodGet, path: "/runs?run=" + name}, "bench-final")
		b.tallyFinal(out, name, func() string {
			if out.status != http.StatusNotFound {
				return fmt.Sprintf("status %d for a deleted run, want 404", out.status)
			}
			return ""
		})
	}
	for _, i := range finished {
		ask(streamName(i), b.or.streams[i])
	}
}

func (b *bench) tallyFinal(out *outcome, name string, check func() string) {
	msg, wrong := failure(out, check)
	if msg != "" {
		msg = "final check of " + name + ": " + msg
	}
	b.tally.record(msg, wrong)
}

// Op classes the latency metrics are taken over.
func isRead(o *op) bool { return o.kind.isRead() }
func isPut(o *op) bool  { return o.kind == opPut }

// isStream is an append. A finish takes about five appends' time and
// is one stream step in six, so with finishes in the class its p75
// would sit on the edge between the two and jump from run to run; the
// finish is timed per layer (server.finish_us, live.finish_us).
func isStream(o *op) bool { return o.isAppend() }

// latencies appends to xs the phase's latencies in ms over the ops keep
// selects. A failed request misses every limit, so it counts as late
// as the whole phase.
func latencies(xs []float64, ph *phase, keep func(*op) bool) []float64 {
	for _, out := range ph.outs {
		if !keep(out.op) {
			continue
		}
		lat := out.latency()
		if !out.ok {
			lat = ph.elapsed
		}
		xs = append(xs, ms(lat))
	}
	return xs
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second collection empties what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func (b *bench) result(r *report) (*result, error) {
	metrics, err := r.finish()
	if err != nil {
		return nil, err
	}
	logf("attempted=%d failed=%d wrong=%d", b.tally.attempted, b.tally.failed, b.tally.wrong)
	return &result{Correct: b.tally.wrong == 0, Attempted: b.tally.attempted, Failed: b.tally.failed, Metrics: metrics}, nil
}

// untraced runs the workload with tracing off and reports the
// end-to-end metrics. Each of its rounds sends the workload's mix from
// one client, for latency, then from nproc clients, for capacity, then
// the probe, whose writes give the write latencies of a workload whose
// mix has none. Latencies and rates are pooled over all rounds.
func (b *bench) untraced(ctx context.Context) (*result, error) {
	setupTimes, err := b.prepare(ctx, setupReps, false)
	defer b.shutdown()
	if err != nil {
		return nil, err
	}
	r := newReport(endToEnd)
	r.set("setup_s", median(setupTimes), len(setupTimes))
	spv, err := b.e.storedBytesPerVertex()
	if err != nil {
		return nil, err
	}
	r.set("stored_bytes_per_vertex", spv, len(b.e.corpus.Runs))

	var reads, puts, stream []float64
	var closedDone, closedN int
	var closedTime time.Duration
	for i := 0; i < rounds; i++ {
		runtime.GC()
		serial := b.d.closedLoop(ctx, fmt.Sprintf("serial-%d", i), b.gen, 1, b.share(serialShare/rounds))
		b.check(serial)

		runtime.GC()
		closed := b.d.closedLoop(ctx, fmt.Sprintf("closed-%d", i), b.gen, b.d.workers, b.share(closedShare/rounds))
		b.check(closed)
		done := 0
		for _, out := range closed.outs {
			if out.ok {
				done++
			}
		}
		closedDone += done
		closedN += len(closed.outs)
		closedTime += closed.elapsed

		runtime.GC()
		probe := b.d.probe(ctx, b.gen, b.share((1-serialShare-closedShare)/rounds))
		b.check(probe)
		writes := probe
		if b.wl.writes() {
			writes = serial
		}
		n := len(reads)
		reads = latencies(reads, serial, isRead)
		puts = latencies(puts, writes, isPut)
		stream = latencies(stream, writes, isStream)
		logf("round %d: %.0f req/s closed; serial %d requests, read p50 %.3f ms p75 %.3f ms",
			i, float64(done)/closed.elapsed.Seconds(), len(serial.outs), quantile(reads[n:], 0.5), quantile(reads[n:], 0.75))
	}
	if b.wl.writes() {
		b.finalCheck(ctx)
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"read", reads}, {"put", puts}, {"stream", stream}} {
		r.quantile(c.name+"_p50_ms", c.xs, 0.5)
		r.quantile(c.name+"_p75_ms", c.xs, 0.75)
	}
	r.set("max_rps", float64(closedDone)/closedTime.Seconds(), closedN)
	r.set("success_frac", 1-float64(b.tally.failed)/float64(b.tally.attempted), int(b.tally.attempted))
	b.or = nil
	r.set("heap_mb", liveHeapMB(), 1)
	return b.result(r)
}

// traced sends the workload's mix from one client twice over, untraced
// and then with the handler and backend wrappers on, sends the probe
// traced, and replays a sample of the traced ops through the layers'
// public functions. It reports the per-layer metrics.
func (b *bench) traced(ctx context.Context) (*result, error) {
	_, err := b.prepare(ctx, 1, true)
	defer b.shutdown()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	plain := b.d.closedLoop(ctx, "serial", b.gen, 1, b.share(0.3))
	b.check(plain)

	b.e.th.on.Store(true)
	b.e.tb.on.Store(true)
	before := b.e.srv.Stats()
	runtime.GC()
	traced := b.d.closedLoop(ctx, "traced", b.gen, 1, b.share(0.3))
	after := b.e.srv.Stats()
	probe := b.d.probe(ctx, b.gen, b.share(0.15))
	b.e.th.on.Store(false)
	b.e.tb.on.Store(false)
	b.check(traced)
	b.check(probe)

	tracedOuts := append(append([]*outcome(nil), traced.outs...), probe.outs...)
	samples, layer, handler, err := runReplay(b.e, b.in, b.d, b.wl.warm, plain.outs, traced.outs, probe.outs,
		b.seed+30, replayTarget, time.Now().Add(b.share(0.25)))
	if err != nil {
		return nil, err
	}
	if b.wl.writes() {
		b.finalCheck(ctx)
	}

	r := newReport(perLayer)
	var all, transport []float64
	for _, out := range traced.outs {
		if h, ok := b.e.th.handled(out.op.seq); ok {
			all = append(all, micros(h))
			transport = append(transport, micros(out.done-out.sent-h))
		}
	}
	r.quantile("server.handler_us", all, 0.5)
	r.quantile("server.transport_us", transport, 0.5)
	endpoints := []struct {
		metric string
		keep   func(*op) bool
	}{
		{"server.reachable_us", func(o *op) bool { return o.kind == opReachable }},
		{"server.batch_us", func(o *op) bool { return o.kind == opBatch }},
		{"server.lineage_us", func(o *op) bool { return o.kind == opLineage }},
		{"server.rpq_us", func(o *op) bool { return o.kind == opRPQ }},
		{"server.put_us", isPut},
		{"server.events_us", (*op).isAppend},
		{"server.finish_us", (*op).isFinish},
	}
	for _, ep := range endpoints {
		var xs []float64
		for _, out := range tracedOuts {
			if h, ok := b.e.th.handled(out.op.seq); ok && ep.keep(out.op) {
				xs = append(xs, micros(h))
			}
		}
		r.quantile(ep.metric, xs, 0.5)
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	r.set("server.cache_hits", float64(hits), 1)
	r.set("server.cache_misses", float64(misses), 1)
	r.set("server.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), int(hits+misses))
	r.set("server.cache_invalidations", float64(after.Invalidations-before.Invalidations), 1)
	adm := b.e.srv.AdmissionState()
	r.set("server.admission_rejected", float64(adm.RejectedQueue+adm.RejectedRate), 1)
	r.set("server.peak_inflight", float64(adm.PeakInflight), 1)

	bs := b.e.tb.stats()
	r.quantile("store.read_us", bs.read, 0.5)
	r.quantile("store.bytes_read_per_load", bs.loadBytes, 0.5)
	r.quantile("store.write_us", bs.write, 0.5)
	r.quantile("store.append_us", bs.appendLog, 0.5)
	var putBytes int64
	puts := 0
	for _, out := range tracedOuts {
		if out.ok && out.op.kind == opPut {
			putBytes += int64(len(b.e.putBodies[out.op.run]))
			puts++
		}
	}
	r.set("store.write_amp", float64(bs.putWritten)/float64(max(1, putBytes)), puts)
	for _, name := range []string{
		"store.open_run_us", "xmlio.decode_run_us", "xmlio.encode_run_us",
		"core.snapshot_decode_us", "core.bind_us", "core.label_run_us", "core.snapshot_encode_us",
		"core.batch_ns_per_pair", "run.namer_build_us", "run.namer_lookup_ns", "lineage.cone_us",
		"rpq.compile_us", "rpq.eval_us", "rpq.dfa_states",
		"live.append_us", "live.checkpoint_us", "live.finish_us",
	} {
		r.quantile(name, samples[name], 0.5)
	}
	plainP50 := median(latencies(nil, plain, isRead))
	tracedP50 := median(latencies(nil, traced, isRead))
	r.set("trace.overhead_frac", tracedP50/plainP50-1, len(traced.outs))
	r.set("trace.layer_share", layer.Seconds()/math.Max(handler.Seconds(), 1e-9), 1)
	logf("replayed layers account for %.1f%% of %.3f s of handler time", 100*layer.Seconds()/math.Max(handler.Seconds(), 1e-9), handler.Seconds())
	return b.result(r)
}
