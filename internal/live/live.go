// Package live owns per-run streaming ingest sessions: runs that are
// being labeled event-by-event while the workflow still executes,
// instead of arriving as one finished document. Each Session wraps an
// online.Labeler (the paper's Section 9 incremental scheme) fed by
// events.Event appends, tracks its own copy table so the execution tree
// can be reconstructed, and persists every accepted batch to a per-run
// event log blob (store.Backend.AppendEventLog) before applying it —
// the log is the stream's write-ahead log, so a crash loses no accepted
// event. Periodic checkpoints (an atomic meta blob holding the applied
// event prefix) bound what recovery must re-parse from the log to the
// tail written since the last checkpoint, and tolerate the torn final
// record a crashed append may leave.
//
// # Wire protocol
//
// Appends carry an offset: the sequence number of the batch's first
// event. A batch whose offset runs past the applied sequence is a gap
// (ErrGap); a batch overlapping the applied prefix must resend the
// identical events (idempotent resume — anything else is ErrConflict)
// and only the surplus is applied. Copies must be numbered densely in
// start order (copy 0 is the run itself and is never started), parents
// before children and loop iterations in serial order — the convention
// events.Emit produces. Streams following it replay to the same dense
// vertex IDs run.Materialize assigns, which is what lets Finish seal
// the session into a stored run answering queries byte-identically to
// the same run ingested as one document.
//
// # Concurrency
//
// A Session is not self-synchronizing: the serving layer serializes
// appends, checkpoints, finishes and queries per run name (its striped
// run locks — appends under the write side, queries under the read
// side). The Registry and Gauges are safe for concurrent use on their
// own locks/atomics, so health endpoints never block on a stream.
package live

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/online"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// ErrGap reports an append whose offset lies beyond the applied event
// sequence: the client skipped ahead and must resume from Seq.
var ErrGap = errors.New("live: offset beyond the applied event sequence")

// ErrConflict reports an append overlapping the applied prefix with
// different events: resume must resend what was acknowledged verbatim.
var ErrConflict = errors.New("live: resent events conflict with the applied history")

// EventError reports a semantically invalid event (unknown module,
// out-of-sequence copy, wrong hierarchy parent) at Index within the
// fresh part of a batch. Nothing from the batch is applied.
type EventError struct {
	Index int
	Err   error
}

func (e *EventError) Error() string { return fmt.Sprintf("live: event %d: %v", e.Index, e.Err) }
func (e *EventError) Unwrap() error { return e.Err }

// IncompleteError reports a Finish on a stream that does not describe a
// complete run: some fork or loop site has no copy yet, or the exec
// order diverged from the Emit convention so the materialized vertex
// numbering would not match the live one.
type IncompleteError struct{ Err error }

func (e *IncompleteError) Error() string { return fmt.Sprintf("live: run incomplete: %v", e.Err) }
func (e *IncompleteError) Unwrap() error { return e.Err }

// Gauges are the streaming subsystem's process-wide counters, mirrored
// into atomics so /healthz reads them without touching any run lock.
type Gauges struct {
	open        atomic.Int64
	events      atomic.Int64
	renumbers   atomic.Int64
	replays     atomic.Int64
	checkpoints atomic.Int64
	lag         atomic.Int64
}

// Stats is a snapshot of Gauges for serialization.
type Stats struct {
	// Open counts live sessions currently registered.
	Open int64 `json:"open"`
	// Events counts events applied in this process (including replays).
	Events int64 `json:"events"`
	// Renumbers counts online-labeler key redistributions.
	Renumbers int64 `json:"renumbers"`
	// Replays counts crash recoveries performed.
	Replays int64 `json:"replays"`
	// Checkpoints counts checkpoints written.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointLag sums, over open sessions, the events applied since
	// each session's last checkpoint — the replay debt a crash right now
	// would incur.
	CheckpointLag int64 `json:"checkpoint_lag"`
}

func (g *Gauges) snapshot() Stats {
	return Stats{
		Open:          g.open.Load(),
		Events:        g.events.Load(),
		Renumbers:     g.renumbers.Load(),
		Replays:       g.replays.Load(),
		Checkpoints:   g.checkpoints.Load(),
		CheckpointLag: g.lag.Load(),
	}
}

// Registry holds the open live sessions by run name. Lookup/insert/
// remove are guarded by its own lock; the sessions themselves are
// still the caller's to serialize per name.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session // guarded by mu
	g        Gauges
}

// NewRegistry returns an empty session registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// Gauges returns the registry's counters, to pass into NewSession and
// Recover so session activity is reflected in Stats.
func (r *Registry) Gauges() *Gauges { return &r.g }

// Get returns the live session for name, or nil.
func (r *Registry) Get(name string) *Session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sessions[name]
}

// Put registers a session under name.
func (r *Registry) Put(name string, s *Session) {
	r.mu.Lock()
	r.sessions[name] = s
	r.mu.Unlock()
	r.g.open.Add(1)
}

// Remove unregisters and returns name's session (nil if absent),
// retiring its contribution to the open and checkpoint-lag gauges.
func (r *Registry) Remove(name string) *Session {
	r.mu.Lock()
	s := r.sessions[name]
	delete(r.sessions, name)
	r.mu.Unlock()
	if s != nil {
		r.g.open.Add(-1)
		r.g.lag.Add(-int64(s.SinceCheckpoint()))
	}
	return s
}

// Len returns the number of open sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Names returns the open sessions' run names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.sessions))
	for n := range r.sessions {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats snapshots the registry's gauges.
func (r *Registry) Stats() Stats { return r.g.snapshot() }

// CheckpointMeta returns the store meta blob name holding the named
// run's stream checkpoint. An absent or empty blob means no checkpoint.
func CheckpointMeta(name string) string { return ".ckpt-" + name }

// copyState is the session's own record of one started copy: the
// labeler's Copy fields are unexported, and Finish needs the copy tree
// back to rebuild the execution tree.
type copyState struct {
	h      *online.Copy
	hnode  int
	parent int
	// kids lists the copies started under this copy per hierarchy child
	// node, in start order — exactly an ExecTree site's copy list.
	kids map[int][]int
}

// Session is one run being ingested event-by-event.
type Session struct {
	name string
	st   *store.Store
	sp   *spec.Spec
	lab  *online.Labeler
	g    *Gauges

	copies  []copyState
	history []events.Event
	origins []dag.VertexID
	// names/byName/counts are the incremental equivalent of run.Namer:
	// occurrence names assigned as executions arrive, in the same
	// per-origin counting order NewNamer uses on the materialized run.
	names  []string
	byName map[string]dag.VertexID
	counts []int

	// logBytes is how much of the run's event log this session's history
	// accounts for; appends extend it, recovery re-derives it.
	logBytes     int64
	ckptSeq      int
	ckptLogBytes int64

	lastRenumbers int
	broken        bool

	// lastActive is the wall time (unix nanos) of the session's last
	// append or query, stored atomically so the serving layer's idle-TTL
	// sweep reads it without the run lock. Zero means never touched;
	// NewSession stamps creation time so a session is never instantly
	// idle.
	lastActive atomic.Int64
}

// Touch stamps the session as active now. The serving layer calls it on
// every append and query; SweepIdleStreams compares against it.
func (s *Session) Touch() { s.lastActive.Store(time.Now().UnixNano()) }

// LastActive returns the time of the session's last Touch.
func (s *Session) LastActive() time.Time { return time.Unix(0, s.lastActive.Load()) }

// NewSession starts an empty live session for name over the store's
// specification. Pass the registry's Gauges (nil disconnects metrics).
func NewSession(st *store.Store, name string, skel label.Labeling, g *Gauges) *Session {
	if g == nil {
		g = new(Gauges)
	}
	sp := st.Spec()
	l := online.New(sp, skel)
	s := &Session{
		name:   name,
		st:     st,
		sp:     sp,
		lab:    l,
		g:      g,
		copies: []copyState{{h: l.Root(), hnode: 0, parent: -1}},
		byName: make(map[string]dag.VertexID),
		counts: make([]int, sp.NumVertices()),
	}
	s.Touch()
	return s
}

// Seq returns the number of events applied — the offset the next
// append continues from.
func (s *Session) Seq() int { return len(s.history) }

// NumCopies returns the number of started copies including the root.
func (s *Session) NumCopies() int { return len(s.copies) }

// NumVertices returns the number of module executions recorded.
func (s *Session) NumVertices() int { return len(s.origins) }

// Renumbers reports the labeler's key redistributions so far.
func (s *Session) Renumbers() int { return s.lab.Renumbers() }

// CheckpointSeq returns the sequence the last checkpoint covered
// (0 when none was written).
func (s *Session) CheckpointSeq() int { return s.ckptSeq }

// SinceCheckpoint returns how many applied events a crash right now
// would have to re-parse from the event log.
func (s *Session) SinceCheckpoint() int { return len(s.history) - s.ckptSeq }

// EventLogBytes returns how many event-log bytes the session covers.
func (s *Session) EventLogBytes() int64 { return s.logBytes }

// Broken reports whether a storage failure left the session's durable
// state unknown; a broken session rejects appends until re-recovered.
func (s *Session) Broken() bool { return s.broken }

// Append applies a batch whose first event has sequence number offset.
// Events up to the current sequence must match the applied history
// (they are skipped — idempotent resume after a lost response); the
// rest is validated, durably appended to the run's event log, and only
// then applied to the labeler. It returns how many events were newly
// applied. On ErrGap, ErrConflict or *EventError nothing was applied;
// on a storage error the session is marked broken (the log's tail is
// unknown) and must be rebuilt with Recover.
func (s *Session) Append(evs []events.Event, offset int) (int, error) {
	if s.broken {
		return 0, fmt.Errorf("live: session %q needs recovery after a storage failure", s.name)
	}
	if offset < 0 || offset > len(s.history) {
		return 0, fmt.Errorf("%w: offset %d with %d applied", ErrGap, offset, len(s.history))
	}
	overlap := len(s.history) - offset
	if overlap > len(evs) {
		overlap = len(evs)
	}
	for i := 0; i < overlap; i++ {
		if evs[i] != s.history[offset+i] {
			return 0, fmt.Errorf("%w: batch event %d differs at sequence %d", ErrConflict, i, offset+i)
		}
	}
	fresh := evs[overlap:]
	if len(fresh) == 0 {
		return 0, nil
	}
	if err := s.prevalidate(fresh); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := events.WriteLog(&buf, fresh); err != nil {
		return 0, err
	}
	if err := s.st.AppendRunEvents(s.name, buf.Bytes()); err != nil {
		// A transient error guarantees no bytes landed (the store failure
		// model), so the session stays consistent and appendable — the
		// client retries the batch at the same offset. Any other error
		// means the append may have landed partially; only a fresh
		// Recover can re-establish what is actually on disk.
		if !store.IsTransient(err) {
			s.broken = true
		}
		return 0, fmt.Errorf("live: appending event log for %q: %w", s.name, err)
	}
	s.logBytes += int64(buf.Len())
	if err := s.ingest(fresh); err != nil {
		s.broken = true
		return 0, fmt.Errorf("live: applying events for %q: %w", s.name, err)
	}
	s.g.events.Add(int64(len(fresh)))
	s.g.lag.Add(int64(len(fresh)))
	s.bumpRenumbers()
	return len(fresh), nil
}

func (s *Session) bumpRenumbers() {
	if rn := s.lab.Renumbers(); rn != s.lastRenumbers {
		s.g.renumbers.Add(int64(rn - s.lastRenumbers))
		s.lastRenumbers = rn
	}
}

// prevalidate checks a batch against the session state without mutating
// it, replicating every check StartCopy and AddExec would make — so
// once the batch is in the write-ahead log, applying it cannot fail.
func (s *Session) prevalidate(evs []events.Event) error {
	base := len(s.copies)
	var newHNodes []int // hnodes of copies this batch starts
	hnodeOf := func(id int) (int, bool) {
		switch {
		case id < 0:
			return 0, false
		case id < base:
			return s.copies[id].hnode, true
		case id-base < len(newHNodes):
			return newHNodes[id-base], true
		}
		return 0, false
	}
	for i, e := range evs {
		switch e.Kind {
		case events.CopyStart:
			if e.Copy != base+len(newHNodes) {
				return &EventError{i, fmt.Errorf("copy %d out of sequence (next is %d; copies are numbered densely in start order)", e.Copy, base+len(newHNodes))}
			}
			ph, ok := hnodeOf(e.Parent)
			if !ok {
				return &EventError{i, fmt.Errorf("unknown parent copy %d", e.Parent)}
			}
			if e.HNode < 1 || e.HNode >= s.sp.Hier.NumNodes() || s.sp.Hier.Parent[e.HNode] != ph {
				return &EventError{i, fmt.Errorf("hierarchy node %d is not a child of copy %d's node %d", e.HNode, e.Parent, ph)}
			}
			newHNodes = append(newHNodes, e.HNode)
		case events.ModuleExec:
			h, ok := hnodeOf(e.Copy)
			if !ok {
				return &EventError{i, fmt.Errorf("unknown copy %d", e.Copy)}
			}
			orig, known := s.sp.VertexOf(e.Module)
			if !known {
				return &EventError{i, fmt.Errorf("unknown module %q", e.Module)}
			}
			if h != 0 && !s.sp.SubgraphOf(h).HasVertex(orig) {
				return &EventError{i, fmt.Errorf("module %q is not in copy %d's subgraph", e.Module, e.Copy)}
			}
		default:
			return &EventError{i, fmt.Errorf("unknown event kind %d", e.Kind)}
		}
	}
	return nil
}

// ingest applies prevalidated events to the labeler and records them in
// the history. Errors are invariant violations, not client mistakes.
func (s *Session) ingest(evs []events.Event) error {
	for _, e := range evs {
		if err := s.apply(e); err != nil {
			return err
		}
		s.history = append(s.history, e)
	}
	return nil
}

func (s *Session) apply(e events.Event) error {
	switch e.Kind {
	case events.CopyStart:
		parent := &s.copies[e.Parent]
		c, err := s.lab.StartCopy(parent.h, e.HNode)
		if err != nil {
			return err
		}
		if parent.kids == nil {
			parent.kids = make(map[int][]int)
		}
		parent.kids[e.HNode] = append(parent.kids[e.HNode], e.Copy)
		s.copies = append(s.copies, copyState{h: c, hnode: e.HNode, parent: e.Parent})
	case events.ModuleExec:
		orig, _ := s.sp.VertexOf(e.Module)
		v, err := s.lab.AddExec(s.copies[e.Copy].h, orig)
		if err != nil {
			return err
		}
		s.origins = append(s.origins, orig)
		s.counts[orig]++
		name := run.VertexName(s.sp.NameOf(orig), s.counts[orig])
		s.names = append(s.names, name)
		s.byName[name] = v
	}
	return nil
}

// Checkpoint atomically persists the applied event prefix to the run's
// checkpoint meta blob, so recovery replays it from one validated blob
// and re-parses only the log bytes written afterwards.
func (s *Session) Checkpoint() error {
	if s.broken {
		return fmt.Errorf("live: session %q needs recovery after a storage failure", s.name)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "ckpt %d %d\n", len(s.history), s.logBytes)
	if err := events.WriteLog(&buf, s.history); err != nil {
		return err
	}
	if err := s.st.Backend().WriteMeta(CheckpointMeta(s.name), buf.Bytes()); err != nil {
		return fmt.Errorf("live: checkpointing %q: %w", s.name, err)
	}
	covered := len(s.history) - s.ckptSeq
	s.ckptSeq = len(s.history)
	s.ckptLogBytes = s.logBytes
	s.g.checkpoints.Add(1)
	s.g.lag.Add(-int64(covered))
	return nil
}

// Recover rebuilds the live session for name from its durable state:
// the checkpoint's event prefix (if one was written) plus the event-log
// tail beyond the bytes the checkpoint covers. A torn final record —
// the partial line a crashed append can leave — is tolerated: complete
// lines replay (they were validated before ever reaching the log), the
// partial tail is skipped, and a fresh checkpoint is written over it so
// no future recovery parses those bytes (later appends land after them,
// and recovery slices the log at the checkpoint's byte offset, so the
// garbage is never glued into a parsed record). A run that was never
// streamed to returns an error satisfying errors.Is(err, fs.ErrNotExist).
func Recover(st *store.Store, name string, skel label.Labeling, g *Gauges) (*Session, error) {
	s := NewSession(st, name, skel, g)
	haveCkpt := false
	if rc, err := st.Backend().ReadMeta(CheckpointMeta(name)); err == nil {
		data, rerr := io.ReadAll(rc)
		rc.Close()
		if rerr != nil {
			return nil, fmt.Errorf("live: reading checkpoint for %q: %w", name, rerr)
		}
		if len(data) > 0 {
			seq, logBytes, evs, perr := parseCheckpoint(data)
			if perr != nil {
				return nil, fmt.Errorf("live: checkpoint for %q: %w", name, perr)
			}
			if len(evs) != seq {
				return nil, fmt.Errorf("live: checkpoint for %q holds %d events but declares %d", name, len(evs), seq)
			}
			if err := s.prevalidate(evs); err != nil {
				return nil, fmt.Errorf("live: checkpoint for %q: %w", name, err)
			}
			if err := s.ingest(evs); err != nil {
				return nil, fmt.Errorf("live: replaying checkpoint for %q: %w", name, err)
			}
			s.ckptSeq, s.ckptLogBytes = seq, logBytes
			haveCkpt = true
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("live: reading checkpoint for %q: %w", name, err)
	}

	var data []byte
	switch rc, err := st.ReadRunEvents(name); {
	case err == nil:
		data, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("live: reading event log for %q: %w", name, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		if !haveCkpt {
			return nil, fmt.Errorf("live: no streamed state for run %q: %w", name, fs.ErrNotExist)
		}
	default:
		return nil, err
	}
	if int64(len(data)) < s.ckptLogBytes {
		return nil, fmt.Errorf("live: event log for %q is %d bytes but its checkpoint covers %d", name, len(data), s.ckptLogBytes)
	}
	tail := data[s.ckptLogBytes:]
	clean := 0
	if i := bytes.LastIndexByte(tail, '\n'); i >= 0 {
		clean = i + 1
	}
	evs, err := events.ReadLog(bytes.NewReader(tail[:clean]))
	if err != nil {
		return nil, fmt.Errorf("live: event log for %q: %w", name, err)
	}
	if err := s.prevalidate(evs); err != nil {
		return nil, fmt.Errorf("live: event log for %q: %w", name, err)
	}
	if err := s.ingest(evs); err != nil {
		return nil, fmt.Errorf("live: replaying event log for %q: %w", name, err)
	}
	s.logBytes = s.ckptLogBytes + int64(clean)
	s.g.replays.Add(1)
	s.g.events.Add(int64(len(s.history)))
	s.g.lag.Add(int64(s.SinceCheckpoint()))
	s.bumpRenumbers()
	if clean < len(tail) {
		// Torn tail: account the garbage bytes to the session and
		// checkpoint over them, so appends resume past them and no
		// reader ever parses them.
		s.logBytes = int64(len(data))
		if err := s.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func parseCheckpoint(data []byte) (seq int, logBytes int64, evs []events.Event, err error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return 0, 0, nil, errors.New("missing header line")
	}
	if _, err := fmt.Sscanf(string(data[:i]), "ckpt %d %d", &seq, &logBytes); err != nil {
		return 0, 0, nil, fmt.Errorf("malformed header %q: %w", data[:i], err)
	}
	if seq < 0 || logBytes < 0 {
		return 0, 0, nil, fmt.Errorf("negative header values in %q", data[:i])
	}
	evs, err = events.ReadLog(bytes.NewReader(data[i+1:]))
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, logBytes, evs, nil
}

// Finish seals the session into a normal stored run: the execution tree
// is rebuilt from the copy table, materialized, checked against the
// live state (same vertex count, same origin per vertex — guaranteed
// for Emit-convention streams), labeled and persisted through
// store.PutRunSession. On success the event log and checkpoint are
// cleaned up best-effort (a failure leaves a stale log the serving
// layer's store-wins rule deletes lazily) and the returned session is
// ready to serve queries. An *IncompleteError means the stream does not
// yet describe a complete run and the session stays appendable.
func (s *Session) Finish(scheme label.Scheme) (*store.Session, error) {
	r, err := s.MaterializedRun()
	if err != nil {
		return nil, err
	}
	sess, err := s.st.PutRunSession(s.name, r, nil, scheme)
	if err != nil {
		return nil, err
	}
	//provlint:ignore droppederr best-effort cleanup after a durable PutRunSession; a stale log is reclaimed lazily by the serving layer's store-wins rule (documented above)
	_ = s.st.DeleteRunEvents(s.name)
	//provlint:ignore droppederr best-effort cleanup after a durable PutRunSession; a stale log is reclaimed lazily by the serving layer's store-wins rule (documented above)
	_ = s.st.Backend().WriteMeta(CheckpointMeta(s.name), nil)
	return sess, nil
}

// MaterializedRun rebuilds the run graph the streamed execution tree
// describes so far — the same materialization Finish seals — and
// verifies it matches the live vertex numbering (same count, same
// origin per vertex; guaranteed for Emit-convention streams once every
// fork and loop site has its copies). Queries that need actual run
// edges, like regular path queries, evaluate against the result: its
// vertex IDs are exactly the session's, so the live labels answer
// reachability for it. An *IncompleteError means the stream does not
// yet describe a complete run. Callers serialize against appends via
// the session's run lock (the read side suffices; nothing is mutated).
func (s *Session) MaterializedRun() (*run.Run, error) {
	r, _, err := run.Materialize(s.sp, s.execTree())
	if err != nil {
		return nil, &IncompleteError{err}
	}
	if r.NumVertices() != len(s.origins) {
		return nil, &IncompleteError{fmt.Errorf("materialization yields %d vertices, the stream recorded %d module executions", r.NumVertices(), len(s.origins))}
	}
	for v, o := range s.origins {
		if r.Origin[v] != o {
			return nil, &IncompleteError{fmt.Errorf("exec order diverges from the materialization order at vertex %d (streams must follow the Emit convention)", v)}
		}
	}
	return r, nil
}

// execTree rebuilds the run's execution tree from the copy table.
func (s *Session) execTree() *run.ExecTree {
	return &run.ExecTree{HNode: 0, Copies: []*run.ExecCopy{s.execCopy(0)}}
}

func (s *Session) execCopy(id int) *run.ExecCopy {
	c := s.copies[id]
	children := s.sp.Hier.Children[c.hnode]
	sites := make([]*run.ExecTree, len(children))
	for i, h := range children {
		t := &run.ExecTree{HNode: h}
		for _, kid := range c.kids[h] {
			t.Copies = append(t.Copies, s.execCopy(kid))
		}
		sites[i] = t
	}
	return &run.ExecCopy{Sites: sites}
}

// Name returns the display name of live run vertex v (same occurrence
// numbering run.Namer assigns on the finished run).
func (s *Session) Name(v dag.VertexID) string { return s.names[v] }

// Vertex resolves a vertex reference exactly like the stored-session
// path: occurrence name first, then a numeric vertex ID.
func (s *Session) Vertex(ref string) (dag.VertexID, bool) {
	if v, ok := s.byName[ref]; ok {
		return v, true
	}
	if len(ref) == 0 {
		return 0, false
	}
	digits := ref
	if digits[0] == '+' {
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return 0, false
	}
	id := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if id = id*10 + int(c-'0'); id >= len(s.origins) {
			return 0, false
		}
	}
	return dag.VertexID(id), true
}

// Reachable answers one reachability query on the live labels.
func (s *Session) Reachable(u, v dag.VertexID) bool { return s.lab.Reachable(u, v) }

// ByContext reports whether Reachable(u, v) was decided by the context
// comparison alone (Algorithm 3's fast path), mirroring the stored
// labeling's AnsweredByContext.
func (s *Session) ByContext(u, v dag.VertexID) bool {
	a, b := s.lab.CurrentLabel(u), s.lab.CurrentLabel(v)
	return (a.K2 < b.K2) != (a.K3 < b.K3)
}

// Upstream returns every live vertex that reaches v (excluding v), by
// label scan — the live counterpart of lineage.UpstreamByLabels.
func (s *Session) Upstream(v dag.VertexID) []dag.VertexID {
	var out []dag.VertexID
	for u := 0; u < len(s.origins); u++ {
		if dag.VertexID(u) != v && s.lab.Reachable(dag.VertexID(u), v) {
			out = append(out, dag.VertexID(u))
		}
	}
	return out
}

// Downstream is the forward counterpart of Upstream.
func (s *Session) Downstream(v dag.VertexID) []dag.VertexID {
	var out []dag.VertexID
	for u := 0; u < len(s.origins); u++ {
		if dag.VertexID(u) != v && s.lab.Reachable(v, dag.VertexID(u)) {
			out = append(out, dag.VertexID(u))
		}
	}
	return out
}
