package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fsBackend stores blobs as files under one directory, the layout the
// package has always used:
//
//	<dir>/spec.xml          the specification
//	<dir>/runs/<name>.xml   one run (+ data items) per file
//	<dir>/runs/<name>.skl   the run's label snapshot
//
// A run file holds a RUN1 document (binary, see internal/xmlio) since
// runs stopped being stored as XML; files written before then hold XML
// and still load. The .xml suffix is kept for either format so existing
// directories, tools and the orphan sweep below keep their names.
//
// Writes are crash-safe: every file is written to a hidden temp file in
// the same directory, fsynced, renamed into place, and the directory is
// fsynced, so readers only ever observe complete documents and a
// completed write survives power loss. WriteRun durably renames the
// .skl before the .xml — the .xml is what makes a run visible to
// ListRuns, so a crash between the two leaves an orphaned snapshot
// (overwritten on retry if the write is repeated, otherwise collected
// by the orphan sweep below) rather than a visible run with no labels.
// DeleteRun mirrors that ordering: the .xml is durably removed before
// the .skl, so a crash mid-delete leaves an invisible orphaned .skl,
// never a visible run whose labels are gone. Overwriting a run that is
// concurrently being read can pair new labels with the old document;
// per the Backend contract, same-name write/read races are the caller's
// to serialize.
//
// Orphaned .skl files (a crash landed between the two renames of a
// write or a delete) are swept once on the first ReadSpec or ListRuns —
// store open and the first listing, which on a shard set reaches every
// child — and again on DeleteRun (throttled, see there). The sweep
// serializes against
// in-process writes through sweepMu: WriteRun holds the read side
// across its rename pair so the sweep can never observe (and collect)
// the .skl of a write whose .xml rename is still in flight. Writers in
// other processes are outside this lock and remain the deployment's to
// serialize, as everywhere else in the contract.
type fsBackend struct {
	dir string

	// sweepMu orders the orphan sweep (write side) against WriteRun's
	// skl/xml rename pair (read side); see the type comment.
	sweepMu sync.RWMutex
	// sweepOnce runs the open-time orphan sweep exactly once, from the
	// first ReadSpec (OpenBackend's entry point into the layout) or
	// ListRuns (which reaches every child of a shard set).
	sweepOnce sync.Once
	// lastSweepNs throttles the delete-time sweep (unix nanos of the
	// last one): a bulk retention sweep deleting thousands of runs must
	// not rescan the directory per victim — each full scan is O(runs),
	// so unthrottled batch deletes would go quadratic.
	lastSweepNs atomic.Int64
}

// NewFSBackend returns a filesystem backend rooted at dir. The directory
// need not exist yet: WriteSpec creates the layout. Opening semantics are
// lazy — ReadSpec on a directory that holds no store reports
// fs.ErrNotExist.
func NewFSBackend(dir string) Backend { return &fsBackend{dir: dir} }

func (b *fsBackend) ReadSpec() (io.ReadCloser, error) {
	// Opening a store always starts here, so this is where a directory
	// gets its crash debris (orphaned .skl snapshots) collected.
	b.sweepOnce.Do(func() { b.sweepOrphans() })
	f, err := os.Open(filepath.Join(b.dir, "spec.xml"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

func (b *fsBackend) WriteSpec(data []byte) error {
	if err := os.MkdirAll(filepath.Join(b.dir, "runs"), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return writeFileAtomic(filepath.Join(b.dir, "spec.xml"), data)
}

func (b *fsBackend) ReadRun(name string) (io.ReadCloser, error) {
	return b.openBlob(name, ".xml")
}

func (b *fsBackend) ReadLabels(name string) (io.ReadCloser, error) {
	return b.openBlob(name, ".skl")
}

func (b *fsBackend) openBlob(name, ext string) (io.ReadCloser, error) {
	f, err := os.Open(b.runPath(name, ext))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

func (b *fsBackend) WriteRun(name string, runDoc, labels []byte) error {
	if err := os.MkdirAll(filepath.Join(b.dir, "runs"), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The read side of sweepMu spans the rename pair: between the .skl
	// and .xml renames this run is exactly the orphan shape the sweep
	// collects, and the sweep must not run until the .xml lands.
	b.sweepMu.RLock()
	defer b.sweepMu.RUnlock()
	if err := writeFileAtomic(b.runPath(name, ".skl"), labels); err != nil {
		return err
	}
	return writeFileAtomic(b.runPath(name, ".xml"), runDoc)
}

// DeleteRun removes the pair in the reverse of the write ordering: the
// .xml (what makes the run visible) is durably removed first, so at no
// point can a reader list or open a run whose labels are already gone —
// a crash between the two leaves only an invisible orphaned .skl, which
// the trailing sweep (or the next open) collects. The trailing sweep is
// a full runs/ scan (one ReadDir + stats, no fsync — small next to the
// two directory fsyncs the delete itself pays), throttled to once per
// second so a retention sweep deleting thousands of victims does one
// scan per second instead of one per victim; orphans are invisible
// garbage, so collecting them a little later costs nothing.
func (b *fsBackend) DeleteRun(name string) error {
	if err := b.deleteRunPair(name); err != nil {
		return err
	}
	now := time.Now().UnixNano()
	if last := b.lastSweepNs.Load(); now-last >= int64(time.Second) && b.lastSweepNs.CompareAndSwap(last, now) {
		b.sweepOrphans()
	}
	return nil
}

func (b *fsBackend) deleteRunPair(name string) error {
	b.sweepMu.RLock()
	defer b.sweepMu.RUnlock()
	if err := os.Remove(b.runPath(name, ".xml")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	runsDir := filepath.Join(b.dir, "runs")
	if err := syncDir(runsDir); err != nil {
		return err
	}
	if err := os.Remove(b.runPath(name, ".skl")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// A missing .skl behind a present .xml should not happen, but the
		// run is already invisible — the delete succeeded.
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(runsDir)
}

// sweepOrphans removes label snapshots with no sibling .xml — the
// debris a crash between a write's (or delete's) two renames leaves
// behind. It holds the write side of sweepMu, so no in-process WriteRun
// can be mid-pair while it scans. Sweep failures are deliberately
// swallowed: an orphan is invisible garbage, never worth failing an
// open or a delete over.
func (b *fsBackend) sweepOrphans() {
	b.sweepMu.Lock()
	defer b.sweepMu.Unlock()
	runsDir := filepath.Join(b.dir, "runs")
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		return // no runs directory, nothing to sweep
	}
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, ".") || !strings.HasSuffix(n, ".skl") {
			continue
		}
		xml := strings.TrimSuffix(n, ".skl") + ".xml"
		if _, err := os.Stat(filepath.Join(runsDir, xml)); errors.Is(err, fs.ErrNotExist) {
			os.Remove(filepath.Join(runsDir, n))
		}
	}
}

// Event logs live as runs/<name>.evlog, a suffix neither ListRuns
// (.xml) nor the orphan sweep (.skl) matches, so a live run's log can
// exist for as long as the stream does without being listed or swept.
// AppendEventLog is the streaming WAL write: open O_APPEND, write,
// fsync — the bytes are on stable storage before the batch is
// acknowledged. The containing directory is fsynced only when the
// append creates the log (file creation is a directory mutation;
// appends to an existing file are not), so steady-state appends cost
// one write + one file fsync.
func (b *fsBackend) AppendEventLog(name string, data []byte) error {
	if err := os.MkdirAll(filepath.Join(b.dir, "runs"), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := b.runPath(name, ".evlog")
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, fs.ErrNotExist)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if created {
		return syncDir(filepath.Join(b.dir, "runs"))
	}
	return nil
}

func (b *fsBackend) ReadEventLog(name string) (io.ReadCloser, error) {
	return b.openBlob(name, ".evlog")
}

// ListEventLogs scans runs/ for .evlog files — the streams a crash may
// have left behind. A directory that was never written (no layout yet)
// simply holds no logs.
func (b *fsBackend) ListEventLogs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(b.dir, "runs"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if strings.HasSuffix(e.Name(), ".evlog") {
			out = append(out, strings.TrimSuffix(e.Name(), ".evlog"))
		}
	}
	sort.Strings(out)
	return out, nil
}

func (b *fsBackend) DeleteEventLog(name string) error {
	if err := os.Remove(b.runPath(name, ".evlog")); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(filepath.Join(b.dir, "runs"))
}

// Meta blobs live as dot-prefixed files in the store's root directory
// (next to spec.xml), so they can never collide with run blobs under
// runs/ and never appear in ListRuns.
func (b *fsBackend) ReadMeta(name string) (io.ReadCloser, error) {
	if err := ValidMetaName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(b.dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

func (b *fsBackend) WriteMeta(name string, data []byte) error {
	if err := ValidMetaName(name); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return writeFileAtomic(filepath.Join(b.dir, name), data)
}

func (b *fsBackend) ListRuns() ([]string, error) {
	// The sweep also hooks the first listing: a shard set only reads the
	// spec from its first child, so for children 1..n this is the call
	// that collects their crash debris at startup (every shard ListRuns
	// fans out to all children; serving layers list before they sweep
	// retention).
	b.sweepOnce.Do(func() { b.sweepOrphans() })
	entries, err := os.ReadDir(filepath.Join(b.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		// Temp files are dot-prefixed, so they never collide with valid
		// run names even if one survives a crash.
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if strings.HasSuffix(e.Name(), ".xml") {
			out = append(out, strings.TrimSuffix(e.Name(), ".xml"))
		}
	}
	sort.Strings(out)
	return out, nil
}

func (b *fsBackend) Stat() Stats { return Stats{Kind: "fs", Path: b.dir} }

func (b *fsBackend) Close() error { return nil }

func (b *fsBackend) runPath(name, ext string) string {
	return filepath.Join(b.dir, "runs", name+ext)
}

// writeFileAtomic writes data to a dot-prefixed temp file next to path
// (so a crash can never leave a stray that collides with a valid run
// name — ValidRunName forbids the leading dot), fsyncs it, renames it
// into place, and fsyncs the directory so the rename itself is durable.
// A crash at any point leaves either the old content or the new content
// at path, never a truncated mix — and once the call returns, the new
// content survives power loss. The directory fsync is also what makes
// WriteRun's skl-before-xml ordering hold across a crash: the .skl
// rename is on stable storage before the .xml rename is attempted.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp makes the file 0600; stored blobs keep the historical
	// os.Create permissions so stores stay shareable across processes
	// and users.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
