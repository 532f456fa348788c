package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/loadgen"
)

// opKind is one request kind of the traffic mix.
type opKind uint8

const (
	opReachable opKind = iota // GET /reachable
	opBatch                   // POST /batch
	opLineage                 // GET /lineage
	opRPQ                     // POST /rpq
	opPut                     // PUT /runs/{name}
	opStream                  // one step of a stream cycle: append, finish or delete
	opDelete                  // DELETE /runs/{name}
	numKinds
)

var kindNames = [numKinds]string{"reachable", "batch", "lineage", "rpq", "put", "stream", "delete"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isRead() bool { return k <= opRPQ }

// isAppend and isFinish tell a stream step's request.
func (o *op) isAppend() bool { return o.kind == opStream && o.step < o.appends }
func (o *op) isFinish() bool { return o.kind == opStream && o.step == o.appends }

// op is one fully determined request. Every random choice is drawn when
// the op is generated, so the same seed yields the same op sequence no
// matter how the requests interleave on the wire.
type op struct {
	seq  int64
	kind opKind
	name string // run name the request targets
	run  int    // corpus run index (reads) or PUT body index (put)

	// Reads. Vertex references go out as occurrence names when the
	// matching *Name flag is set and as numeric IDs otherwise.
	from, to         int32
	fromName, toName bool
	pairs            [][2]int32 // batch, always by name
	down             bool       // lineage direction
	pattern          int        // rpq pattern index

	// Writes.
	script  int // stream: which append script
	appends int // stream: appends in the script
	step    int // stream: append index, then finish, then delete
	want    int // expected HTTP status (writes); reads always expect 200

	// after, when set, is closed once the previous request on the same
	// name has answered: requests on one write name go out in generation
	// order, so the expected store state is known exactly.
	after <-chan struct{}
	done  chan struct{}
}

// inputs is what the generator draws requests over.
type inputs struct {
	runNames    []string
	runVertices []int
	names       [][]string // occurrence names per corpus run (from the oracle)
	unique      [][]int32  // vertices per corpus run whose name is unique
	patterns    int
	putBodies   int
	appends     []int // appends per stream script
}

// generator draws the workload's op sequence from the seed. It also
// carries the model of the write names (which PUT body each holds) and
// of every stream's position in its cycle, which fixes each write's
// expected status and the final state the oracle checks.
type generator struct {
	mu         sync.Mutex
	in         *inputs
	rng        *rand.Rand       // guarded by mu
	zipf       *loadgen.Zipf    // stateless; shared
	cum        [numKinds]int    // cumulative mix weights
	seq        int64            // guarded by mu
	stored     map[string]int   // guarded by mu; write name -> PUT body index
	streamStep [streamNames]int // guarded by mu
	nextStream int              // guarded by mu
	last       map[string]chan struct{}
}

func newGenerator(wl *workload, in *inputs, seed int64) *generator {
	g := &generator{
		in:     in,
		rng:    rand.New(rand.NewSource(seed)),
		zipf:   loadgen.NewZipf(len(in.runNames), wl.theta),
		stored: make(map[string]int),
		last:   make(map[string]chan struct{}),
	}
	total := 0
	for k, w := range wl.mix {
		total += w
		g.cum[k] = total
	}
	return g
}

func writeName(i int) string  { return fmt.Sprintf("w-%02d", i) }
func streamName(i int) string { return fmt.Sprintf("s-%02d", i) }

// next draws the next op of the mix. Its seq is the op's position in
// the sequence.
func (g *generator) next() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.rng.Intn(g.cum[numKinds-1])
	k := opKind(0)
	for g.cum[k] <= n {
		k++
	}
	return g.draw(k, g.zipf.Next(g.rng))
}

// draw builds one op of kind k on corpus run r (reads). The caller
// holds g.mu.
func (g *generator) draw(k opKind, r int) *op {
	o := &op{seq: g.seq, kind: k, want: 200}
	g.seq++
	if k.isRead() {
		o.run, o.name = r, g.in.runNames[r]
		o.fromName, o.toName = g.rng.Intn(2) == 0, g.rng.Intn(2) == 0
		o.from, o.to = g.vertex(r, o.fromName), g.vertex(r, o.toName)
		switch k {
		case opBatch:
			o.pairs = make([][2]int32, batchPairs)
			for i := range o.pairs {
				o.pairs[i] = [2]int32{g.vertex(r, true), g.vertex(r, true)}
			}
		case opLineage:
			o.down = g.rng.Intn(2) == 0
		case opRPQ:
			o.pattern = g.rng.Intn(g.in.patterns)
		}
		return o
	}
	switch k {
	case opPut:
		o.name = writeName(g.rng.Intn(writeNames))
		o.run = g.rng.Intn(g.in.putBodies)
		g.stored[o.name] = o.run
	case opDelete:
		o.name = writeName(g.rng.Intn(writeNames))
		if _, ok := g.stored[o.name]; !ok {
			o.want = 404
		}
		delete(g.stored, o.name)
	case opStream:
		i := g.nextStream
		g.nextStream = (i + 1) % streamNames
		o.name, o.script, o.appends = streamName(i), i, g.in.appends[i]
		o.step = g.streamStep[i]
		g.streamStep[i] = (o.step + 1) % (o.appends + 2)
	}
	g.chain(o)
	return o
}

// vertex draws a vertex of corpus run r; one to be named is drawn from
// the vertices with a unique name. The caller holds g.mu.
func (g *generator) vertex(r int, named bool) int32 {
	if named {
		u := g.in.unique[r]
		return u[g.rng.Intn(len(u))]
	}
	return int32(g.rng.Intn(g.in.runVertices[r]))
}

// chain orders o after the previous op on the same name. The caller
// holds g.mu.
func (g *generator) chain(o *op) {
	o.after = g.last[o.name]
	o.done = make(chan struct{})
	g.last[o.name] = o.done
}

// probeCycle draws one cycle of the closing probe: one request of every
// kind the service answers, sent one at a time on a server that is
// otherwise idle. It writes only probe-* names, so the mix's model is
// untouched.
func (g *generator) probeCycle(i int) []*op {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ops []*op
	for k := opReachable; k <= opRPQ; k++ {
		ops = append(ops, g.draw(k, g.rng.Intn(len(g.in.runNames))))
	}
	put := &op{seq: g.seq, kind: opPut, name: "probe-w", run: i % g.in.putBodies, want: 200}
	g.seq++
	ops = append(ops, put)
	script := i % streamNames
	for step := 0; step < g.in.appends[script]+2; step++ {
		ops = append(ops, &op{seq: g.seq, kind: opStream, name: "probe-s", script: script,
			appends: g.in.appends[script], step: step, want: 200})
		g.seq++
	}
	ops = append(ops, &op{seq: g.seq, kind: opDelete, name: "probe-w", want: 200})
	g.seq++
	return ops
}

// finalState returns what the write names and streams hold once the
// traffic stops: write name -> PUT body, and the streams sitting
// between finish and delete (a finished, stored run).
func (g *generator) finalState() (map[string]int, []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	stored := make(map[string]int, len(g.stored))
	for k, v := range g.stored {
		stored[k] = v
	}
	var finished []int
	for i, step := range g.streamStep {
		if step == g.in.appends[i]+1 {
			finished = append(finished, i)
		}
	}
	return stored, finished
}
