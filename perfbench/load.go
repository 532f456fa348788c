package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/loadgen"
)

// request is one op rendered for the wire.
type request struct {
	method, path string
	body         []byte
}

// outcome is what one request came back with. Times are offsets from
// the start of its phase.
type outcome struct {
	op         *op
	status     int
	err        error
	body       []byte
	sent, done time.Duration
	ok         bool // set by the answer check
}

// latency is the request's time from sent to answered.
func (o *outcome) latency() time.Duration { return o.done - o.sent }

// phase is one timed stretch of traffic.
type phase struct {
	name    string
	outs    []*outcome
	elapsed time.Duration
}

// sender sends the workload's requests and keeps every answer.
type sender struct {
	base    string
	client  *http.Client
	workers int
	in      *inputs
	bodies  [][]byte
	streams [][]loadgen.StreamBatch
	pats    []string
}

// render turns an op into its request.
func (d *sender) render(o *op) request {
	switch o.kind {
	case opReachable:
		return request{method: http.MethodGet, path: fmt.Sprintf("/reachable?run=%s&from=%s&to=%s",
			o.name, d.ref(o.run, o.from, o.fromName), d.ref(o.run, o.to, o.toName))}
	case opBatch:
		return request{method: http.MethodPost, path: "/batch", body: batchBody(o.name, d.in.names[o.run], o.pairs)}
	case opLineage:
		dir := "up"
		if o.down {
			dir = "down"
		}
		return request{method: http.MethodGet, path: fmt.Sprintf("/lineage?run=%s&vertex=%s&dir=%s",
			o.name, d.ref(o.run, o.from, o.fromName), dir)}
	case opRPQ:
		body, err := json.Marshal(map[string]string{
			"run": o.name, "pattern": d.pats[o.pattern],
			"from": strconv.Itoa(int(o.from)), "to": strconv.Itoa(int(o.to)),
		})
		if err != nil {
			panic(err) // a map of strings always marshals
		}
		return request{method: http.MethodPost, path: "/rpq", body: body}
	case opPut:
		return request{method: http.MethodPut, path: "/runs/" + o.name, body: d.bodies[o.run]}
	case opStream:
		switch {
		case o.isAppend():
			b := d.streams[o.script][o.step]
			return request{method: http.MethodPost,
				path: fmt.Sprintf("/runs/%s/events?offset=%d", o.name, b.Offset), body: b.Body}
		case o.isFinish():
			return request{method: http.MethodPost, path: "/runs/" + o.name + "/finish"}
		}
	}
	return request{method: http.MethodDelete, path: "/runs/" + o.name}
}

// ref renders a vertex reference as an occurrence name or a numeric ID.
func (d *sender) ref(run int, v int32, byName bool) string {
	if byName {
		return url.QueryEscape(d.in.names[run][v])
	}
	return strconv.Itoa(int(v))
}

// batchBody renders a /batch request naming every vertex by occurrence
// name.
func batchBody(run string, names []string, pairs [][2]int32) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"run":%q,"pairs":[`, run)
	for i, p := range pairs {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `[%q,%q]`, names[p[0]], names[p[1]])
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

// exec waits for the previous request on the op's name, then sends
// the op's request.
func (d *sender) exec(ctx context.Context, start time.Time, o *op, req request, client string) *outcome {
	if o.after != nil {
		<-o.after
	}
	if o.done != nil {
		defer close(o.done)
	}
	out := d.send(ctx, start, o.seq, req, client)
	out.op = o
	return out
}

// send sends one request and reads the whole answer.
func (d *sender) send(ctx context.Context, start time.Time, seq int64, req request, client string) *outcome {
	out := &outcome{}
	hreq, err := http.NewRequestWithContext(ctx, req.method, d.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		out.err = err
		return out
	}
	hreq.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	hreq.Header.Set("X-Client-ID", client)
	out.sent = time.Since(start)
	resp, err := d.client.Do(hreq)
	if err == nil {
		out.status = resp.StatusCode
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	out.done = time.Since(start)
	out.err = err
	return out
}

// closedLoop runs clients clients for dur, each sending its next op as
// soon as the previous one answers.
func (d *sender) closedLoop(ctx context.Context, name string, g *generator, clients int, dur time.Duration) *phase {
	var wg sync.WaitGroup
	ph := &phase{name: name}
	parts := make([]*phase, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		parts[w] = &phase{}
		wg.Add(1)
		go func(part *phase, client string) {
			defer wg.Done()
			for time.Since(start) < dur {
				o := g.next()
				req := d.render(o)
				part.outs = append(part.outs, d.exec(ctx, start, o, req, client))
			}
		}(parts[w], fmt.Sprintf("bench-%d", w))
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, part := range parts {
		ph.outs = append(ph.outs, part.outs...)
	}
	return ph
}

// probe sends whole probe cycles, one request at a time, until dur has
// passed.
func (d *sender) probe(ctx context.Context, g *generator, dur time.Duration) *phase {
	ph := &phase{name: "probe"}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		for _, o := range g.probeCycle(i) {
			ph.outs = append(ph.outs, d.exec(ctx, start, o, d.render(o), "bench-probe"))
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}
