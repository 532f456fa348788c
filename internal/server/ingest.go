package server

import (
	"errors"
	"net/http"
	"sync"

	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/xmlio"
)

// ingest.go is the server's write path: PUT /runs/{name} accepts a run
// document (the xmlio run XML, with data items inline when present),
// labels and persists it through store.PutRun under the server's
// scheme, refreshes the session cache so the very next query sees the
// new run, and reports the stored snapshot's version and size. Ingest
// is off unless Config.EnableIngest is set: a provserve fronting a
// read-only store stays read-only.
//
// The body goes through xmlio.DecodeRun, the same reader the store
// loads runs with, so a binary RUN1 document (what the store keeps) is
// accepted as well as XML; both are validated the same way. RUN1 packs
// about ten times more vertices into a byte than XML, so the
// MaxIngestBytes cap admits correspondingly larger runs in that form.
//
// The store contract leaves same-name write/write and write/read races
// to the caller, and this server is that caller: runLocks is a striped
// reader/writer lock over run names. A PUT holds the write side across
// store.PutRun and the cache invalidation; every cache-miss session
// load holds the read side (see Server.load). So concurrent PUTs for
// one name serialize, a load can never interleave a WriteRun and pair
// the old run document with the new label snapshot (a torn session),
// and distinct names — modulo stripe collisions — ingest and load fully
// in parallel. Cache *hits* take no lock at all: a resident session is
// immutable. Writers from other processes on a shared store are outside
// this lock and remain the deployment's to serialize, per the store
// contract; OpenRun's vertex-count check turns such torn pairs into
// errors rather than wrong answers whenever the sizes differ.

// runLocks is the striped per-run-name RWMutex. 64 stripes keyed by
// FNV-1a of the run name: collisions cost unrelated-name serialization,
// never correctness, and the fixed size means no per-name bookkeeping
// to leak.
type runLocks struct {
	mu [64]sync.RWMutex
}

// fnv32a is the package's one inlined FNV-1a over a run name (the same
// keying as the shard backend's router) — hash/fnv would heap-allocate
// its state and copy the name on every load and every PUT. Both stripe
// consumers (runLocks, the session cache's generation table) derive
// their index from this single implementation.
func fnv32a(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// forName picks the run's lock stripe.
func (l *runLocks) forName(name string) *sync.RWMutex {
	return &l.mu[fnv32a(name)%uint32(len(l.mu))]
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.ingest {
		writeErr(w, http.StatusForbidden,
			"ingest is disabled on this server (start it with ingest enabled to accept PUT /runs)")
		return
	}
	name := r.PathValue("name")
	if err := store.ValidRunName(name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.brk.isOpen() {
		s.unavailable(w, "degraded mode: the storage backend is unavailable, ingest is disabled")
		return
	}
	// Shield this name from retention sweeps for the whole handler: a
	// sweep triggered by a concurrent PUT must not delete a run whose
	// 200 is still on its way to the client.
	s.ingestingMu.Lock()
	s.ingesting[name]++
	s.ingestingMu.Unlock()
	defer func() {
		s.ingestingMu.Lock()
		if s.ingesting[name]--; s.ingesting[name] <= 0 {
			delete(s.ingesting, name)
		}
		s.ingestingMu.Unlock()
	}()
	// The decoder must never trust Content-Length or read an unbounded
	// hostile body: MaxBytesReader caps what xml parsing can consume.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	rn, ann, err := xmlio.DecodeRun(r.Body, s.st.Spec())
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"run document exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "malformed run document: %v", err)
		return
	}

	mu := s.runMu.forName(name)
	mu.Lock()
	sess, err := s.st.PutRunSession(name, rn, ann, s.scheme)
	if err == nil && s.cache.Invalidate(name) {
		// The run was resident, so someone is querying it: refresh the
		// entry in place from the labeling just built instead of
		// evicting it and re-reading the backend. Runs nobody queried
		// stay out of the cache entirely — cache membership is driven
		// by query traffic, so a bulk ingest can never flush the query
		// working set. Both steps happen under the write lock: no load
		// is in flight, so nothing can re-cache the old run in between.
		s.cache.Put(name, &session{Session: sess, namer: run.NewNamer(sess.Run)})
	}
	mu.Unlock()
	s.brk.note(err)
	if err != nil {
		// The document already decoded and validated against the spec,
		// so a PutRunSession failure is the store's (labeling, encoding,
		// or backend I/O) — the client's request was well-formed. A
		// transient failure left no usable pair behind (a partial write
		// is transient precisely because an overwrite retry heals it), so
		// the client is told to retry, not that the server broke.
		if store.IsTransient(err) {
			s.unavailable(w, "storing run %q: %v", name, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "storing run %q: %v", name, err)
		return
	}
	if s.maxRuns > 0 {
		// Retention rides the write path: every PUT that may have grown
		// the store sweeps it back under the bound. The just-ingested run
		// is protected — a PUT must never delete its own run, even when
		// nobody has queried it yet.
		if _, err := s.EnforceMaxRuns(s.maxRuns, name); err != nil {
			s.logf("server: retention sweep after PUT %q: %v", name, err)
		}
	}
	items := 0
	if sess.Data != nil {
		items = len(sess.Data.Items)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":              name,
		"vertices":         sess.Run.NumVertices(),
		"edges":            sess.Run.NumEdges(),
		"data_items":       items,
		"snapshot_version": sess.SnapshotVersion.String(),
		"snapshot_bytes":   sess.SnapshotBytes,
	})
}
