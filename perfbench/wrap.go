package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// seqHeader carries an op's sequence number, so a handler time can be
// paired with the client-side time of the same request.
const seqHeader = "X-Bench-Seq"

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedHandler wraps the server and, while on, times every ServeHTTP
// call, keyed by the request's op sequence number.
type timedHandler struct {
	next http.Handler
	on   atomic.Bool

	mu    sync.Mutex
	bySeq map[int64]time.Duration // guarded by mu
}

func newTimedHandler(next http.Handler) *timedHandler {
	return &timedHandler{next: next, bySeq: make(map[int64]time.Duration)}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.bySeq[seq] = d
	h.mu.Unlock()
}

// handled returns the handler time of request seq.
func (h *timedHandler) handled(seq int64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.bySeq[seq]
	return d, ok
}

// timedBackend wraps the store's backend and, while on, times the calls
// the serving path makes into it. A load is one ReadRun followed by one
// ReadLabels of the same name (store.OpenRun's order); its bytes are
// counted as the decoders consume them.
type timedBackend struct {
	store.Backend
	on atomic.Bool

	mu         sync.Mutex
	pending    map[string]*pendingLoad // guarded by mu; ReadRun done, ReadLabels not yet
	read       []float64               // guarded by mu; µs per load
	loadBytes  []float64               // guarded by mu
	write      []float64               // guarded by mu; µs per WriteRun
	appendLog  []float64               // guarded by mu; µs per AppendEventLog
	putWritten int64                   // guarded by mu; bytes WriteRun stored for PUT names
}

type pendingLoad struct {
	call  time.Duration
	bytes int64
}

func newTimedBackend(b store.Backend) *timedBackend {
	return &timedBackend{Backend: b, pending: make(map[string]*pendingLoad)}
}

func (b *timedBackend) ReadRun(name string) (io.ReadCloser, error) {
	if !b.on.Load() {
		return b.Backend.ReadRun(name)
	}
	t0 := time.Now()
	rc, err := b.Backend.ReadRun(name)
	if err != nil {
		return nil, err
	}
	pl := &pendingLoad{call: time.Since(t0)}
	b.mu.Lock()
	b.pending[name] = pl
	b.mu.Unlock()
	return &countingReader{rc: rc, onClose: func(n int64) {
		b.mu.Lock()
		pl.bytes = n
		b.mu.Unlock()
	}}, nil
}

func (b *timedBackend) ReadLabels(name string) (io.ReadCloser, error) {
	if !b.on.Load() {
		return b.Backend.ReadLabels(name)
	}
	t0 := time.Now()
	rc, err := b.Backend.ReadLabels(name)
	if err != nil {
		return nil, err
	}
	call := time.Since(t0)
	b.mu.Lock()
	pl := b.pending[name]
	delete(b.pending, name)
	b.mu.Unlock()
	if pl == nil {
		pl = &pendingLoad{}
	}
	return &countingReader{rc: rc, onClose: func(n int64) {
		b.mu.Lock()
		b.read = append(b.read, micros(pl.call+call))
		b.loadBytes = append(b.loadBytes, float64(pl.bytes+n))
		b.mu.Unlock()
	}}, nil
}

func (b *timedBackend) WriteRun(name string, runDoc, labels []byte) error {
	if !b.on.Load() {
		return b.Backend.WriteRun(name, runDoc, labels)
	}
	t0 := time.Now()
	err := b.Backend.WriteRun(name, runDoc, labels)
	d := time.Since(t0)
	b.mu.Lock()
	b.write = append(b.write, micros(d))
	if err == nil && isPutName(name) {
		b.putWritten += int64(len(runDoc) + len(labels))
	}
	b.mu.Unlock()
	return err
}

func (b *timedBackend) AppendEventLog(name string, data []byte) error {
	if !b.on.Load() {
		return b.Backend.AppendEventLog(name, data)
	}
	t0 := time.Now()
	err := b.Backend.AppendEventLog(name, data)
	d := time.Since(t0)
	b.mu.Lock()
	b.appendLog = append(b.appendLog, micros(d))
	b.mu.Unlock()
	return err
}

// isPutName reports whether name is written by PUT (not by a stream).
func isPutName(name string) bool {
	return strings.HasPrefix(name, "w-") || name == "probe-w"
}

// backendStats is a copy of the timed backend's samples.
type backendStats struct {
	read, loadBytes, write, appendLog []float64
	putWritten                        int64
}

func (b *timedBackend) stats() backendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return backendStats{
		read:       append([]float64(nil), b.read...),
		loadBytes:  append([]float64(nil), b.loadBytes...),
		write:      append([]float64(nil), b.write...),
		appendLog:  append([]float64(nil), b.appendLog...),
		putWritten: b.putWritten,
	}
}

// countingReader counts the bytes read through it and reports the
// count once, on Close.
type countingReader struct {
	rc      io.ReadCloser
	n       int64
	onClose func(int64)
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error {
	if c.onClose != nil {
		c.onClose(c.n)
		c.onClose = nil
	}
	return c.rc.Close()
}
