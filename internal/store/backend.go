package store

import "io"

// Backend is the blob-level storage substrate under a Store. It moves
// opaque documents — the specification XML, per-run documents (RUN1,
// or XML in older stores), and per-run label snapshots — without
// interpreting them; all validation, labeling and snapshot binding
// happens in Store. Keeping the interface at the
// blob level is what lets one labeling/query layer sit on interchangeable
// substrates: a directory (fs), RAM (mem), a hash-routed fan-out over
// child backends (shard), or a future remote/object-store layout.
//
// # Contract
//
// All methods must be safe for concurrent use. WriteRun must be atomic
// with respect to run visibility: a half-written run must never become
// visible to ListRuns or readable through ReadRun/ReadLabels — a listed
// run always has both blobs intact, and the label snapshot must become
// readable no later than the run document (labels-before-XML ordering:
// a reader that observes the document can always read the labels).
// WriteRun on an existing name overwrites: the new pair replaces the
// old, each blob is replaced whole (never truncated or interleaved),
// and ListRuns keeps reporting the name exactly once. Overwrite is NOT
// atomic across the pair, though: a reader interleaving an overwrite
// may pair the old document with the new labels (or vice versa), which
// is why overwriting a name while other goroutines read or write that
// same name races (mirroring the Store contract) and must be serialized
// by the caller — the serving layer does so with a per-run-name
// reader/writer lock around its loads and ingests. Distinct names never
// interfere. Reading a run, spec or meta blob that was never written
// must return an error satisfying
// errors.Is(err, fs.ErrNotExist) — the serving layer relies on that to
// distinguish 404 from 500. ListRuns returns names sorted ascending and
// never includes meta blobs.
//
// DeleteRun is the mirror of WriteRun: it removes the pair with the
// document made unreadable no later than the labels (document-before-
// labels ordering, the reverse of the write side), so a reader that
// observes the document can still read the labels — a visible run never
// loses its label snapshot mid-delete. Deleting a name that is not
// stored returns fs.ErrNotExist (the server's 404), and deleting while
// other goroutines read or write that same name races like overwrite
// does: the caller serializes same-name delete/read/write; distinct
// names never interfere.
//
// Event logs are a third, independent per-run blob: an append-only
// record of the streaming events that built a live run, written batch
// by batch before each batch is acknowledged. AppendEventLog must make
// the appended bytes durable before returning (it is the streaming
// write-ahead log; crash recovery replays it), must never interleave
// two appends to the same name partially (same-name appends are
// caller-serialized like WriteRun, but a crashed append may leave a
// torn tail — readers must tolerate a final partial record), and must
// not retain the slice. ReadEventLog streams everything appended so
// far; a name never appended returns fs.ErrNotExist. DeleteEventLog
// removes the log; deleting a log that does not exist is a no-op (nil),
// because log deletion is cleanup — callers fire it after a finish or a
// run delete without caring whether streaming was ever used. Event logs
// are invisible to ListRuns and independent of the run/labels pair:
// writing or deleting one side never touches the other. ListEventLogs
// is their own listing — the names with a log present, sorted ascending
// — so a restarted serving layer can find interrupted streams without
// probing every possible name (eager stream recovery).
//
// # Failure model
//
// Errors are classified transient or permanent via ErrTransient (see
// IsTransient): a transient error means the same call may succeed if
// retried, a permanent one means it will not. Every backend must keep
// not-exist, validation and corruption errors unmarked (permanent), and
// may mark overload/flaky-substrate failures transient. Two operations
// carry a stricter rule because they are not idempotent: an
// AppendEventLog or DeleteRun error may only be transient when the
// operation had NO side effect (no bytes appended, nothing removed) —
// ambiguous failures stay permanent so a retry layer never duplicates
// appended bytes or mistakes a completed delete for a missing run. The
// retry wrapper (WithRetry) and the fault injector
// (internal/store/faultinject) are built on exactly this contract.
type Backend interface {
	// ReadSpec streams the stored specification document.
	ReadSpec() (io.ReadCloser, error)
	// WriteSpec persists the specification document, initializing the
	// backend's layout if needed. It overwrites any previous spec.
	WriteSpec(data []byte) error
	// ReadRun streams the named run's document.
	ReadRun(name string) (io.ReadCloser, error)
	// ReadLabels streams the named run's label snapshot.
	ReadLabels(name string) (io.ReadCloser, error)
	// WriteRun atomically persists a run document and its label snapshot
	// under name. Implementations must not retain the slices.
	WriteRun(name string, runDoc, labels []byte) error
	// DeleteRun removes the named run's document and label snapshot,
	// document first (see the contract above). Deleting a name that is
	// not stored returns an error satisfying errors.Is(err,
	// fs.ErrNotExist).
	DeleteRun(name string) error
	// ListRuns returns the stored run names, sorted ascending.
	ListRuns() ([]string, error)
	// AppendEventLog durably appends data to the named run's event log,
	// creating the log if needed (see the contract above).
	AppendEventLog(name string, data []byte) error
	// ReadEventLog streams the named run's event log. A log never
	// appended returns an error satisfying errors.Is(err, fs.ErrNotExist).
	ReadEventLog(name string) (io.ReadCloser, error)
	// DeleteEventLog removes the named run's event log; removing a
	// nonexistent log is a successful no-op.
	DeleteEventLog(name string) error
	// ListEventLogs returns the names that currently have an event log,
	// sorted ascending — the streams a crash may have interrupted. A
	// backend holding no logs returns an empty list, not an error.
	ListEventLogs() ([]string, error)
	// ReadMeta streams a small named metadata blob (e.g. the serving
	// layer's hot-session list). Meta names are dot-prefixed (see
	// ValidMetaName), which keeps them disjoint from run names on every
	// backend.
	ReadMeta(name string) (io.ReadCloser, error)
	// WriteMeta atomically persists a small metadata blob under name,
	// overwriting any previous value. Implementations must not retain
	// the slice. Sharded backends replicate meta to every child, like
	// the spec.
	WriteMeta(name string, data []byte) error
	// Stat cheaply describes the backend for monitoring (no I/O heavier
	// than constant-time bookkeeping).
	Stat() Stats
	// Close releases the backend's resources. The backend is unusable
	// afterwards.
	Close() error
}

// Stats describes a backend for monitoring endpoints (e.g. the query
// server's /healthz). Fields are populated where they are cheap: Path
// for fs backends, Runs for mem backends, Shards (one child entry each)
// for shard backends.
type Stats struct {
	// Kind identifies the backend implementation: "fs", "mem" or "shard".
	Kind string `json:"kind"`
	// Path is the fs backend's directory.
	Path string `json:"path,omitempty"`
	// Runs is the mem backend's resident run count.
	Runs int `json:"runs,omitempty"`
	// Shards holds one entry per child of a shard backend.
	Shards []Stats `json:"shards,omitempty"`
	// Wrapped is the inner backend's stats for wrapper backends (the
	// retry layer, the fault injector).
	Wrapped *Stats `json:"wrapped,omitempty"`
	// Counters holds wrapper-specific counters (retries performed,
	// faults injected), populated by wrapper backends.
	Counters map[string]int64 `json:"counters,omitempty"`
}
