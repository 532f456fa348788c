package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/lineage"
	"repro/internal/rpq"
	"repro/internal/run"
)

// oracleRun answers queries on one generated run by graph search, with
// no labels, snapshots, codecs or name index of the service involved.
//
// An occurrence name is the module name followed by the occurrence
// number, so names can collide when module names end in digits ("v1"
// occurrence 11 and "v11" occurrence 1 are both "v111"). Requests name
// only the vertices in unique, whose names denote them alone.
type oracleRun struct {
	r       *run.Run
	names   []string
	unique  []int32
	closure *dag.Closure // built on first use
}

func newOracleRun(r *run.Run) *oracleRun {
	o := &oracleRun{r: r, names: make([]string, r.NumVertices())}
	counts := make([]int, r.Spec.NumVertices())
	seen := make(map[string]int, r.NumVertices())
	for v, orig := range r.Origin {
		counts[orig]++
		o.names[v] = string(r.Spec.NameOf(orig)) + strconv.Itoa(counts[orig])
		seen[o.names[v]]++
	}
	for v, name := range o.names {
		if seen[name] == 1 {
			o.unique = append(o.unique, int32(v))
		}
	}
	return o
}

func (o *oracleRun) reachable(u, v int32) bool {
	if o.closure == nil {
		c, ok := o.r.Graph.TransitiveClosure()
		if !ok {
			panic("generated run graph is cyclic")
		}
		o.closure = c
	}
	return o.closure.Reachable(dag.VertexID(u), dag.VertexID(v))
}

// oracle holds the generated runs behind every input the service gets:
// the corpus, the PUT bodies and the streamed run. They are regenerated
// from the same seeds the loadgen helpers use, and checked against the
// sizes those helpers reported.
type oracle struct {
	corpus   []*oracleRun
	puts     []*oracleRun
	streams  []*oracleRun
	seqs     [][]int // per stream script, the sequence each append acknowledges
	patterns []*rpq.Prog
}

func buildOracle(wl *workload, e *env, seed int64) (*oracle, error) {
	o := &oracle{}
	rng := rand.New(rand.NewSource(seed))
	for _, info := range e.corpus.Runs {
		r, _ := run.GenerateSized(e.sp, rng, wl.vertices)
		if r.NumVertices() != info.Vertices {
			return nil, fmt.Errorf("oracle: corpus run %s has %d vertices, regenerated %d", info.Name, info.Vertices, r.NumVertices())
		}
		o.corpus = append(o.corpus, newOracleRun(r))
	}
	rng = rand.New(rand.NewSource(seed + 1))
	for range e.putBodies {
		r, _ := run.GenerateSized(e.sp, rng, putVertices)
		o.puts = append(o.puts, newOracleRun(r))
	}
	for i, script := range e.streams {
		r, p := run.GenerateSized(e.sp, rand.New(rand.NewSource(streamSeed(seed, i))), streamVertices)
		o.streams = append(o.streams, newOracleRun(r))
		seqs := make([]int, len(script))
		for j := range script {
			if j+1 < len(script) {
				seqs[j] = script[j+1].Offset
			} else {
				seqs[j] = len(events.Emit(r, p))
			}
		}
		o.seqs = append(o.seqs, seqs)
	}
	for _, pat := range e.patterns {
		prog, err := rpq.Compile(pat, e.lookupModule)
		if err != nil {
			return nil, fmt.Errorf("oracle: pattern %q: %w", pat, err)
		}
		o.patterns = append(o.patterns, prog)
	}
	return o, nil
}

// runFor returns the oracle of the run a read op targets.
func (o *oracle) runFor(x *op) *oracleRun { return o.corpus[x.run] }

// check compares one answered request with the oracle. It returns a
// description of the mismatch, or "" when the answer is right.
func (o *oracle) check(x *op, status int, body []byte) string {
	if status != x.want {
		return fmt.Sprintf("status %d, want %d", status, x.want)
	}
	if status != 200 {
		return ""
	}
	switch x.kind {
	case opReachable:
		return o.runFor(x).checkReachable(x.from, x.to, body)
	case opBatch:
		return o.runFor(x).checkBatch(x.pairs, body)
	case opLineage:
		return o.runFor(x).checkLineage(x.from, x.down, body)
	case opRPQ:
		var resp struct{ Match *bool }
		if err := json.Unmarshal(body, &resp); err != nil || resp.Match == nil {
			return fmt.Sprintf("bad rpq response %.80q", body)
		}
		or := o.runFor(x)
		want := or.r.Graph.MatchAutomaton(dag.VertexID(x.from), dag.VertexID(x.to), or.r.Origin, o.patterns[x.pattern])
		if *resp.Match != want {
			return fmt.Sprintf("rpq match %v, want %v", *resp.Match, want)
		}
	case opPut:
		return checkSize(o.puts[x.run], body)
	case opStream:
		switch {
		case x.isAppend():
			want := o.seqs[x.script][x.step]
			var resp struct{ Seq int }
			if err := json.Unmarshal(body, &resp); err != nil || resp.Seq != want {
				return fmt.Sprintf("append seq in %.80q, want %d", body, want)
			}
		case x.isFinish():
			return checkSize(o.streams[x.script], body)
		}
	}
	return ""
}

func checkSize(or *oracleRun, body []byte) string {
	var resp struct{ Vertices, Edges int }
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("bad write response %.80q", body)
	}
	if resp.Vertices != or.r.NumVertices() || resp.Edges != or.r.NumEdges() {
		return fmt.Sprintf("stored %d vertices/%d edges, want %d/%d",
			resp.Vertices, resp.Edges, or.r.NumVertices(), or.r.NumEdges())
	}
	return ""
}

func (or *oracleRun) checkReachable(from, to int32, body []byte) string {
	var resp struct{ Reachable *bool }
	if err := json.Unmarshal(body, &resp); err != nil || resp.Reachable == nil {
		return fmt.Sprintf("bad reachable response %.80q", body)
	}
	if want := or.reachable(from, to); *resp.Reachable != want {
		return fmt.Sprintf("reachable(%d,%d) = %v, want %v", from, to, *resp.Reachable, want)
	}
	return ""
}

func (or *oracleRun) checkBatch(pairs [][2]int32, body []byte) string {
	var resp struct{ Results []bool }
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("bad batch response %.80q", body)
	}
	if len(resp.Results) != len(pairs) {
		return fmt.Sprintf("batch answered %d pairs, sent %d", len(resp.Results), len(pairs))
	}
	for i, p := range pairs {
		if want := or.reachable(p[0], p[1]); resp.Results[i] != want {
			return fmt.Sprintf("batch pair %d (%d,%d) = %v, want %v", i, p[0], p[1], resp.Results[i], want)
		}
	}
	return ""
}

func (or *oracleRun) checkLineage(v int32, down bool, body []byte) string {
	var resp struct {
		Count int
		Cone  []string
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("bad lineage response %.80q", body)
	}
	var want []dag.VertexID
	if down {
		want = lineage.Downstream(or.r, dag.VertexID(v))
	} else {
		want = lineage.Upstream(or.r, dag.VertexID(v))
	}
	if len(resp.Cone) != len(want) || resp.Count != len(want) {
		return fmt.Sprintf("lineage of %d has %d vertices (count %d), want %d", v, len(resp.Cone), resp.Count, len(want))
	}
	wantNames := make([]string, len(want))
	for i, u := range want {
		wantNames[i] = or.names[u]
	}
	sort.Strings(wantNames)
	sort.Strings(resp.Cone)
	for i, name := range resp.Cone {
		if name != wantNames[i] {
			return fmt.Sprintf("lineage of %d names %q, want %q", v, name, wantNames[i])
		}
	}
	return ""
}
