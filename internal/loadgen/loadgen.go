// Package loadgen is the open-loop multi-tenant load harness behind
// cmd/provload: N simulated clients issue a configurable mix of
// /reachable, /batch, /lineage, /rpq, PUT, DELETE and streaming-ingest
// traffic against a provserve-compatible HTTP server, with zipfian run
// popularity, and
// the harness reports per-endpoint latency histograms, throughput,
// 429/admission outcomes and SLO verdicts as a machine-readable JSON
// document.
//
// The generator is open-loop: request start times follow a Poisson
// arrival process at the configured rate regardless of how fast the
// server answers, so a saturated server shows up as growing latency and
// 429s instead of the harness politely slowing down to match it (the
// closed-loop coordinated-omission trap). A bounded outstanding-request
// cap protects the harness itself; arrivals past the cap are counted as
// shed, never silently dropped.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/server"
)

// Op identifies one traffic class; the string is both the mix key and
// the report's endpoint key.
type Op string

const (
	OpReachable Op = "reachable"
	OpBatch     Op = "batch"
	OpLineage   Op = "lineage"
	OpRPQ       Op = "rpq"
	OpPut       Op = "put"
	OpDelete    Op = "delete"
	OpStream    Op = "stream"
)

var allOps = []Op{OpReachable, OpBatch, OpLineage, OpRPQ, OpPut, OpDelete, OpStream}

// Mix weights the traffic classes. Weights are relative; zero disables
// a class.
type Mix struct {
	Reachable int `json:"reachable"`
	Batch     int `json:"batch"`
	Lineage   int `json:"lineage"`
	RPQ       int `json:"rpq"`
	Put       int `json:"put"`
	Delete    int `json:"delete"`
	Stream    int `json:"stream"`
}

// DefaultMix is a read-heavy production-ish blend.
var DefaultMix = Mix{Reachable: 70, Batch: 15, Lineage: 5, Put: 8, Delete: 2}

func (m Mix) weight(op Op) int {
	switch op {
	case OpReachable:
		return m.Reachable
	case OpBatch:
		return m.Batch
	case OpLineage:
		return m.Lineage
	case OpRPQ:
		return m.RPQ
	case OpPut:
		return m.Put
	case OpDelete:
		return m.Delete
	case OpStream:
		return m.Stream
	}
	return 0
}

func (m Mix) total() int {
	t := 0
	for _, op := range allOps {
		t += m.weight(op)
	}
	return t
}

// ParseMix parses "reachable=70,batch=15,put=10,delete=5" (omitted
// classes get weight 0).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("mix: %q is not key=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("mix: bad weight %q", val)
		}
		switch Op(strings.TrimSpace(key)) {
		case OpReachable:
			m.Reachable = w
		case OpBatch:
			m.Batch = w
		case OpLineage:
			m.Lineage = w
		case OpRPQ:
			m.RPQ = w
		case OpPut:
			m.Put = w
		case OpDelete:
			m.Delete = w
		case OpStream:
			m.Stream = w
		default:
			return m, fmt.Errorf("mix: unknown class %q", key)
		}
	}
	if m.total() == 0 {
		return m, errors.New("mix: all weights are zero")
	}
	return m, nil
}

// RunInfo is one queryable run in the corpus: its stored name and
// vertex count (queries address vertices by numeric ID, which the
// server resolves without a name table lookup).
type RunInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
}

// Config configures one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; nil builds one sized for Clients
	// concurrent connections.
	Client *http.Client
	// Clients is the number of simulated clients, each with its own
	// X-Client-ID, rng and arrival process. Default 8.
	Clients int
	// Rate is the total target arrival rate in requests/second across
	// all clients (open loop). Default 100.
	Rate float64
	// Duration bounds the run. Default 5s.
	Duration time.Duration
	// Mix weights the traffic classes. Zero-valued Mix means DefaultMix.
	Mix Mix
	// Runs is the read corpus; popularity over it is zipfian by slice
	// order (Runs[0] hottest). Required when any read class has weight.
	Runs []RunInfo
	// PutBodies are pre-rendered run XML documents cycled by PUT
	// traffic. Required when Put has weight.
	PutBodies [][]byte
	// WriteNames is the size of the writable name pool ("load-wNNN")
	// that PUT and DELETE target; DELETE of a name not currently stored
	// is counted as not_found, exercising the miss path. Default 32.
	WriteNames int
	// BatchPairs is the number of pairs per /batch request. Default 16.
	BatchPairs int
	// RPQPatterns is the pattern pool rpq traffic cycles through (each
	// request pairs a random pattern with random endpoints on a zipfian-
	// chosen run). Build one with rpq.RandomPattern over the spec's
	// module names. Required when RPQ has weight.
	RPQPatterns []string
	// StreamBatches is the pre-rendered event-batch script stream
	// traffic cycles through: each client drives its own live run
	// ("stream-<client>") by appending the batches in order, sealing the
	// run with finish, deleting it, and starting over. Build it with
	// SplitEventLog. Required when Stream has weight; the server must
	// run with streaming enabled.
	StreamBatches []StreamBatch
	// Theta is the zipfian skew over Runs; 0 draws them uniformly.
	// YCSB's classic skew, provload's default, is 0.99.
	Theta float64
	// Seed makes client schedules and query choices deterministic.
	Seed int64
	// MaxOutstanding caps requests in flight across all clients
	// (harness self-protection); arrivals past it are counted as shed.
	// Default 4*Clients.
	MaxOutstanding int
	// SLO, when non-nil, is evaluated into the report's verdicts.
	SLO *SLO
}

// SLO is the service-level objective the report is judged against.
type SLO struct {
	// ReadP99 bounds p99 latency on reachable/batch/lineage; 0 skips.
	ReadP99 time.Duration `json:"read_p99"`
	// WriteP99 bounds p99 latency on put/delete; 0 skips.
	WriteP99 time.Duration `json:"write_p99"`
	// MaxErrorRate bounds (server errors + transport errors) / requests
	// over all traffic. Negative skips; 0 means "none allowed".
	MaxErrorRate float64 `json:"max_error_rate"`
	// MinThroughput bounds achieved requests/second (completed, any
	// status) from below; 0 skips.
	MinThroughput float64 `json:"min_throughput"`
}

// Verdict is one SLO check's outcome.
type Verdict struct {
	Name   string  `json:"name"`
	Limit  float64 `json:"limit"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

// SLOReport is the evaluated SLO.
type SLOReport struct {
	Pass     bool      `json:"pass"`
	Verdicts []Verdict `json:"verdicts"`
}

// LatencyStats summarizes one endpoint's latency histogram, in
// microseconds.
type LatencyStats struct {
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

// EndpointStats is one traffic class's outcome counts and latency.
type EndpointStats struct {
	Requests      int64         `json:"requests"`
	OK            int64         `json:"ok"`
	NotFound      int64         `json:"not_found,omitempty"`
	Rejected429   int64         `json:"rejected_429,omitempty"`
	ClientErrors  int64         `json:"client_errors,omitempty"`
	ServerErrors  int64         `json:"server_errors,omitempty"`
	NetErrors     int64         `json:"net_errors,omitempty"`
	Shed          int64         `json:"shed,omitempty"`
	ThroughputRPS float64       `json:"throughput_rps"`
	Latency       *LatencyStats `json:"latency,omitempty"`

	hist Hist
}

// ServerDelta is the change in the server's own /healthz counters over
// the run — server-side truth to cross-check the client-side numbers
// (responses lost in transit under overload show up as a gap between
// served and completed).
type ServerDelta struct {
	Admitted      int64            `json:"admitted"`
	RejectedQueue int64            `json:"rejected_queue"`
	RejectedRate  int64            `json:"rejected_rate"`
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	CacheHitRate  float64          `json:"cache_hit_rate"`
	Evictions     int64            `json:"cache_evictions"`
	Served        map[string]int64 `json:"served,omitempty"`
}

// Report is the machine-readable result of one load run
// (schema "provload.v1").
type Report struct {
	Schema    string                    `json:"schema"`
	Target    string                    `json:"target"`
	Clients   int                       `json:"clients"`
	RateRPS   float64                   `json:"rate_rps"`
	Theta     float64                   `json:"theta"`
	Seed      int64                     `json:"seed"`
	Mix       Mix                       `json:"mix"`
	Corpus    int                       `json:"corpus_runs"`
	DurationS float64                   `json:"duration_s"`
	Endpoints map[string]*EndpointStats `json:"endpoints"`
	Total     *EndpointStats            `json:"total"`
	Server    *ServerDelta              `json:"server,omitempty"`
	SLO       *SLOReport                `json:"slo,omitempty"`
}

// outcome classes for the collector.
const (
	clsOK = iota
	clsNotFound
	cls429
	clsClientErr
	clsServerErr
	clsNetErr
	clsShed
)

type sample struct {
	op    Op
	ns    int64
	class int
}

// Run drives the configured load against cfg.BaseURL and returns the
// report. ctx cancellation stops the run early (the report covers what
// ran).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: Config.BaseURL is required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix
	}
	if cfg.WriteNames <= 0 {
		cfg.WriteNames = 32
	}
	if cfg.BatchPairs <= 0 {
		cfg.BatchPairs = 16
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4 * cfg.Clients
	}
	readWeight := cfg.Mix.Reachable + cfg.Mix.Batch + cfg.Mix.Lineage + cfg.Mix.RPQ
	if readWeight > 0 && len(cfg.Runs) == 0 {
		return nil, errors.New("loadgen: read traffic weighted but Config.Runs is empty")
	}
	if cfg.Mix.RPQ > 0 && len(cfg.RPQPatterns) == 0 {
		return nil, errors.New("loadgen: rpq traffic weighted but Config.RPQPatterns is empty")
	}
	if cfg.Mix.Put > 0 && len(cfg.PutBodies) == 0 {
		return nil, errors.New("loadgen: put traffic weighted but Config.PutBodies is empty")
	}
	if cfg.Mix.Stream > 0 && len(cfg.StreamBatches) == 0 {
		return nil, errors.New("loadgen: stream traffic weighted but Config.StreamBatches is empty")
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Clients + cfg.MaxOutstanding
		client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	base := strings.TrimRight(cfg.BaseURL, "/")

	before, beforeErr := fetchHealthz(ctx, client, base)

	var (
		zipf    = NewZipf(len(cfg.Runs), cfg.Theta)
		samples = make(chan sample, 4096)
		sem     = make(chan struct{}, cfg.MaxOutstanding)
		reqWG   sync.WaitGroup
		cliWG   sync.WaitGroup
	)

	stats := map[Op]*EndpointStats{}
	for _, op := range allOps {
		if cfg.Mix.weight(op) > 0 {
			stats[op] = &EndpointStats{}
		}
	}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for s := range samples {
			es := stats[s.op]
			switch s.class {
			case clsShed:
				es.Shed++
				continue
			case clsOK:
				es.OK++
			case clsNotFound:
				es.NotFound++
			case cls429:
				es.Rejected429++
			case clsClientErr:
				es.ClientErrors++
			case clsServerErr:
				es.ServerErrors++
			case clsNetErr:
				es.NetErrors++
			}
			es.Requests++
			es.hist.Record(s.ns)
		}
	}()

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	perClientRate := cfg.Rate / float64(cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		cliWG.Add(1)
		go func(c int) {
			defer cliWG.Done()
			w := &worker{
				cfg:      &cfg,
				client:   client,
				base:     base,
				rng:      rand.New(rand.NewSource(cfg.Seed + int64(c)*7919)),
				zipf:     zipf,
				clientID: fmt.Sprintf("load-c%03d", c),
			}
			next := time.Now()
			for {
				// Poisson arrivals: exponential inter-arrival times at
				// the per-client rate, scheduled against absolute time
				// so server slowness never stretches the schedule.
				next = next.Add(time.Duration(w.rng.ExpFloat64() / perClientRate * float64(time.Second)))
				select {
				case <-runCtx.Done():
					return
				case <-time.After(time.Until(next)):
				}
				// Draw every random choice here, on the scheduling
				// goroutine, so the request goroutine never touches
				// the worker's rng.
				op := w.pickOp()
				req := w.buildRequest(op)
				select {
				case sem <- struct{}{}:
				default:
					samples <- sample{op: op, class: clsShed}
					continue
				}
				reqWG.Add(1)
				go func() {
					defer func() { <-sem; reqWG.Done() }()
					samples <- w.exec(ctx, op, req)
				}()
			}
		}(c)
	}
	cliWG.Wait()
	reqWG.Wait()
	elapsed := time.Since(start)
	close(samples)
	<-collectorDone

	rep := &Report{
		Schema:    "provload.v1",
		Target:    base,
		Clients:   cfg.Clients,
		RateRPS:   cfg.Rate,
		Theta:     cfg.Theta,
		Seed:      cfg.Seed,
		Mix:       cfg.Mix,
		Corpus:    len(cfg.Runs),
		DurationS: elapsed.Seconds(),
		Endpoints: map[string]*EndpointStats{},
		Total:     &EndpointStats{},
	}
	for op, es := range stats {
		es.finish(elapsed)
		rep.Endpoints[string(op)] = es
		rep.Total.add(es)
	}
	rep.Total.finish(elapsed)

	if after, err := fetchHealthz(ctx, client, base); err == nil && beforeErr == nil {
		rep.Server = delta(before, after)
	}
	if cfg.SLO != nil {
		rep.SLO = evaluateSLO(cfg.SLO, rep)
	}
	return rep, nil
}

func (es *EndpointStats) add(o *EndpointStats) {
	es.Requests += o.Requests
	es.OK += o.OK
	es.NotFound += o.NotFound
	es.Rejected429 += o.Rejected429
	es.ClientErrors += o.ClientErrors
	es.ServerErrors += o.ServerErrors
	es.NetErrors += o.NetErrors
	es.Shed += o.Shed
	es.hist.Merge(&o.hist)
}

func (es *EndpointStats) finish(elapsed time.Duration) {
	if elapsed > 0 {
		es.ThroughputRPS = float64(es.Requests) / elapsed.Seconds()
	}
	if es.hist.Count() > 0 {
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		es.Latency = &LatencyStats{
			P50Us:  us(es.hist.Quantile(0.50)),
			P95Us:  us(es.hist.Quantile(0.95)),
			P99Us:  us(es.hist.Quantile(0.99)),
			MaxUs:  us(es.hist.Max()),
			MeanUs: es.hist.Mean() / 1e3,
		}
	}
}

// StreamBatch is one pre-rendered POST /runs/{name}/events body with
// the offset it resumes at.
type StreamBatch struct {
	Offset int
	Body   []byte
}

// SplitEventLog renders an engine event stream into per-append wire
// bodies of per events each, carrying their resume offsets — the script
// stream traffic replays against its live run.
func SplitEventLog(evs []events.Event, per int) ([]StreamBatch, error) {
	if per < 1 {
		per = 1
	}
	var batches []StreamBatch
	for start := 0; start < len(evs); start += per {
		end := start + per
		if end > len(evs) {
			end = len(evs)
		}
		var buf bytes.Buffer
		if err := events.WriteLog(&buf, evs[start:end]); err != nil {
			return nil, err
		}
		batches = append(batches, StreamBatch{Offset: start, Body: buf.Bytes()})
	}
	return batches, nil
}

// worker is one simulated client.
type worker struct {
	cfg      *Config
	client   *http.Client
	base     string
	rng      *rand.Rand
	zipf     *Zipf
	clientID string
	putSeq   int

	// Stream traffic is a per-client state machine over one live run:
	// append the scripted batches in order, finish, delete, restart.
	// The protocol is ordered, so at most one state-advancing stream
	// request is in flight per client (streamBusy; extra arrivals read
	// the run's status instead), and any failed step resets the machine
	// to the delete step so the next cycle starts clean (streamFail).
	// streamStep is only touched on the scheduling goroutine; the flags
	// are shared with request goroutines, hence atomic.
	streamStep int
	streamBusy atomic.Bool
	streamFail atomic.Bool
}

// streamName is this client's live run name.
func (w *worker) streamName() string { return "stream-" + w.clientID }

func (w *worker) pickOp() Op {
	n := w.rng.Intn(w.cfg.Mix.total())
	for _, op := range allOps {
		if n -= w.cfg.Mix.weight(op); n < 0 {
			return op
		}
	}
	return OpReachable
}

func (w *worker) pickRun() RunInfo { return w.cfg.Runs[w.zipf.Next(w.rng)] }

func (w *worker) writeName() string {
	return fmt.Sprintf("load-w%03d", w.rng.Intn(w.cfg.WriteNames))
}

// request is one fully-determined request: all randomness was drawn by
// buildRequest on the scheduling goroutine, so exec is free to run
// concurrently.
type request struct {
	method      string
	url         string
	body        []byte
	contentType string
	// trackStream marks a state-advancing stream request: completion
	// clears the worker's in-flight flag, and a failed outcome flags the
	// state machine for reset.
	trackStream bool
}

// exec issues one request, measures latency from send to body fully
// read, and classifies the outcome.
func (w *worker) exec(ctx context.Context, op Op, r request) sample {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, r.method, r.url, body)
	if err != nil {
		return sample{op: op, ns: time.Since(t0).Nanoseconds(), class: clsNetErr}
	}
	req.Header.Set("X-Client-ID", w.clientID)
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return sample{op: op, ns: time.Since(t0).Nanoseconds(), class: clsNetErr}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ns := time.Since(t0).Nanoseconds()
	class := clsOK
	switch {
	case resp.StatusCode == http.StatusOK:
		class = clsOK
	case resp.StatusCode == http.StatusNotFound:
		class = clsNotFound
	case resp.StatusCode == http.StatusTooManyRequests:
		class = cls429
	case resp.StatusCode >= 500:
		class = clsServerErr
	case resp.StatusCode >= 400:
		class = clsClientErr
	}
	if r.trackStream {
		// Not-found is a clean outcome for the machine's delete step
		// (nothing was streamed yet); anything else non-OK desyncs the
		// offset cursor and forces a reset.
		if class != clsOK && class != clsNotFound {
			w.streamFail.Store(true)
		}
		w.streamBusy.Store(false)
	}
	return sample{op: op, ns: ns, class: class}
}

// buildRequest draws all randomness for one request on the scheduling
// goroutine (the worker's rng is not otherwise synchronized).
func (w *worker) buildRequest(op Op) request {
	switch op {
	case OpReachable:
		r := w.pickRun()
		from, to := w.rng.Intn(r.Vertices), w.rng.Intn(r.Vertices)
		return request{method: http.MethodGet,
			url: fmt.Sprintf("%s/reachable?run=%s&from=%d&to=%d", w.base, r.Name, from, to)}
	case OpBatch:
		r := w.pickRun()
		var buf bytes.Buffer
		fmt.Fprintf(&buf, `{"run":%q,"pairs":[`, r.Name)
		for i := 0; i < w.cfg.BatchPairs; i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "[%d,%d]", w.rng.Intn(r.Vertices), w.rng.Intn(r.Vertices))
		}
		buf.WriteString("]}")
		return request{method: http.MethodPost, url: w.base + "/batch",
			body: buf.Bytes(), contentType: "application/json"}
	case OpLineage:
		r := w.pickRun()
		dir := "up"
		if w.rng.Intn(2) == 0 {
			dir = "down"
		}
		return request{method: http.MethodGet,
			url: fmt.Sprintf("%s/lineage?run=%s&vertex=%d&dir=%s", w.base, r.Name, w.rng.Intn(r.Vertices), dir)}
	case OpRPQ:
		r := w.pickRun()
		pattern := w.cfg.RPQPatterns[w.rng.Intn(len(w.cfg.RPQPatterns))]
		body, _ := json.Marshal(map[string]string{
			"run":     r.Name,
			"from":    strconv.Itoa(w.rng.Intn(r.Vertices)),
			"to":      strconv.Itoa(w.rng.Intn(r.Vertices)),
			"pattern": pattern,
		})
		return request{method: http.MethodPost, url: w.base + "/rpq",
			body: body, contentType: "application/json"}
	case OpPut:
		body := w.cfg.PutBodies[w.putSeq%len(w.cfg.PutBodies)]
		w.putSeq++
		return request{method: http.MethodPut, url: w.base + "/runs/" + w.writeName(),
			body: body, contentType: "application/xml"}
	case OpDelete:
		return request{method: http.MethodDelete, url: w.base + "/runs/" + w.writeName()}
	case OpStream:
		name := w.streamName()
		if w.streamBusy.Load() {
			// The previous step is still in flight; ordered appends
			// cannot overlap, so this arrival reads the run's status.
			return request{method: http.MethodGet, url: w.base + "/runs/" + name}
		}
		if w.streamFail.Swap(false) {
			w.streamStep = len(w.cfg.StreamBatches) + 1 // reset: delete, then restart
		}
		step := w.streamStep
		w.streamStep = (step + 1) % (len(w.cfg.StreamBatches) + 2)
		w.streamBusy.Store(true)
		switch {
		case step < len(w.cfg.StreamBatches):
			b := w.cfg.StreamBatches[step]
			return request{method: http.MethodPost,
				url:  fmt.Sprintf("%s/runs/%s/events?offset=%d", w.base, name, b.Offset),
				body: b.Body, contentType: "text/plain", trackStream: true}
		case step == len(w.cfg.StreamBatches):
			return request{method: http.MethodPost, url: w.base + "/runs/" + name + "/finish",
				trackStream: true}
		default:
			return request{method: http.MethodDelete, url: w.base + "/runs/" + name,
				trackStream: true}
		}
	}
	panic("unreachable")
}

// healthzDoc is the slice of /healthz the harness consumes.
type healthzDoc struct {
	Cache     server.CacheStats     `json:"cache"`
	Admission server.AdmissionStats `json:"admission"`
	Served    map[string]int64      `json:"served"`
}

func fetchHealthz(ctx context.Context, client *http.Client, base string) (*healthzDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	var doc healthzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

func delta(before, after *healthzDoc) *ServerDelta {
	d := &ServerDelta{
		Admitted:      after.Admission.Admitted - before.Admission.Admitted,
		RejectedQueue: after.Admission.RejectedQueue - before.Admission.RejectedQueue,
		RejectedRate:  after.Admission.RejectedRate - before.Admission.RejectedRate,
		CacheHits:     after.Cache.Hits - before.Cache.Hits,
		CacheMisses:   after.Cache.Misses - before.Cache.Misses,
		Evictions:     after.Cache.Evictions - before.Cache.Evictions,
	}
	if t := d.CacheHits + d.CacheMisses; t > 0 {
		d.CacheHitRate = float64(d.CacheHits) / float64(t)
	}
	if len(after.Served) > 0 {
		d.Served = map[string]int64{}
		for k, v := range after.Served {
			if n := v - before.Served[k]; n != 0 {
				d.Served[k] = n
			}
		}
	}
	return d
}

func evaluateSLO(slo *SLO, rep *Report) *SLOReport {
	out := &SLOReport{Pass: true}
	check := func(name string, limit, actual float64, pass bool) {
		out.Verdicts = append(out.Verdicts, Verdict{Name: name, Limit: limit, Actual: actual, Pass: pass})
		if !pass {
			out.Pass = false
		}
	}
	p99 := func(op Op) (float64, bool) {
		es := rep.Endpoints[string(op)]
		if es == nil || es.Latency == nil {
			return 0, false
		}
		return es.Latency.P99Us, true
	}
	if slo.ReadP99 > 0 {
		limit := float64(slo.ReadP99.Microseconds())
		for _, op := range []Op{OpReachable, OpBatch, OpLineage, OpRPQ} {
			if actual, ok := p99(op); ok {
				check(string(op)+"_p99_us", limit, actual, actual <= limit)
			}
		}
	}
	if slo.WriteP99 > 0 {
		limit := float64(slo.WriteP99.Microseconds())
		for _, op := range []Op{OpPut, OpDelete, OpStream} {
			if actual, ok := p99(op); ok {
				check(string(op)+"_p99_us", limit, actual, actual <= limit)
			}
		}
	}
	if slo.MaxErrorRate >= 0 && rep.Total.Requests > 0 {
		rate := float64(rep.Total.ServerErrors+rep.Total.NetErrors) / float64(rep.Total.Requests)
		check("error_rate", slo.MaxErrorRate, rate, rate <= slo.MaxErrorRate)
	}
	if slo.MinThroughput > 0 {
		check("throughput_rps", slo.MinThroughput, rep.Total.ThroughputRPS, rep.Total.ThroughputRPS >= slo.MinThroughput)
	}
	return out
}

// WriteText renders the report as a compact human-readable table.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "provload: %s  %d clients  %.0f req/s target  %.1fs  corpus=%d  theta=%.2f\n",
		r.Target, r.Clients, r.RateRPS, r.DurationS, r.Corpus, r.Theta)
	fmt.Fprintf(w, "%-10s %9s %9s %7s %7s %6s %10s %10s %10s %10s\n",
		"endpoint", "reqs", "rps", "429", "err", "shed", "p50", "p95", "p99", "max")
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	row := func(name string, es *EndpointStats) {
		lat := func(v float64) string {
			return time.Duration(v * float64(time.Microsecond)).Round(time.Microsecond).String()
		}
		p50, p95, p99, max := "-", "-", "-", "-"
		if es.Latency != nil {
			p50, p95, p99, max = lat(es.Latency.P50Us), lat(es.Latency.P95Us), lat(es.Latency.P99Us), lat(es.Latency.MaxUs)
		}
		fmt.Fprintf(w, "%-10s %9d %9.1f %7d %7d %6d %10s %10s %10s %10s\n",
			name, es.Requests, es.ThroughputRPS, es.Rejected429,
			es.ClientErrors+es.ServerErrors+es.NetErrors, es.Shed, p50, p95, p99, max)
	}
	for _, name := range names {
		row(name, r.Endpoints[name])
	}
	row("TOTAL", r.Total)
	if r.Server != nil {
		fmt.Fprintf(w, "server: admitted=%d rejected_queue=%d rejected_rate=%d cache_hit_rate=%.3f (hits=%d misses=%d evictions=%d)\n",
			r.Server.Admitted, r.Server.RejectedQueue, r.Server.RejectedRate,
			r.Server.CacheHitRate, r.Server.CacheHits, r.Server.CacheMisses, r.Server.Evictions)
	}
	if r.SLO != nil {
		for _, v := range r.SLO.Verdicts {
			status := "PASS"
			if !v.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(w, "slo: %-20s limit=%-12.6g actual=%-12.6g %s\n", v.Name, v.Limit, v.Actual, status)
		}
		verdict := "PASS"
		if !r.SLO.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "slo: verdict %s\n", verdict)
	}
}
