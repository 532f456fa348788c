package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
)

// env is one set-up service: a seeded corpus in a mem: store, served
// in-process by server.New over a loopback listener.
type env struct {
	sp        *spec.Spec
	raw       *store.Store // the store set-up writes into; the replay reads it
	tb        *timedBackend
	srv       *server.Server
	th        *timedHandler
	hs        *http.Server
	serveErr  chan error
	base      string
	corpus    *loadgen.Corpus
	putBodies [][]byte
	streams   [][]loadgen.StreamBatch // one append script per stream name
	patterns  []string
}

// setup builds the corpus and the inputs, starts the server and, for a
// warm workload, touches every corpus run once through the server. The
// backend wrapper is switched on before the warm-up when traceLoads is
// set, so a warm workload's loads are measured.
func setup(ctx context.Context, wl *workload, seed int64, client *http.Client, traceLoads bool) (*env, error) {
	sp, err := loadgen.StandInSpec(specName, specSeed)
	if err != nil {
		return nil, err
	}
	raw, err := store.NewMem(sp, specName)
	if err != nil {
		return nil, err
	}
	e := &env{sp: sp, raw: raw, serveErr: make(chan error, 1)}
	if e.corpus, err = loadgen.BuildCorpus(raw, wl.runs, wl.vertices, 0, seed, label.TCM{}); err != nil {
		return nil, err
	}
	if e.putBodies, err = loadgen.RenderPutBodies(sp, specName, putBodies, putVertices, seed+1); err != nil {
		return nil, err
	}
	for i := 0; i < streamNames; i++ {
		script, err := loadgen.StreamEventBatches(sp, streamVertices, streamBatch, streamSeed(seed, i))
		if err != nil {
			return nil, err
		}
		e.streams = append(e.streams, script)
	}
	e.patterns = loadgen.RPQPatternPool(sp, rpqPool, seed+3)

	e.tb = newTimedBackend(raw.Backend())
	served, err := store.OpenBackend(e.tb)
	if err != nil {
		return nil, err
	}
	e.srv, err = server.New(server.Config{
		Store:        served,
		CacheSize:    cacheSize,
		EnableIngest: true,
		EnableStream: true,
	})
	if err != nil {
		return nil, err
	}
	e.th = newTimedHandler(e.srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = server.NewHTTPServer(ln.Addr().String(), e.th)
	go func() { e.serveErr <- e.hs.Serve(ln) }()

	if wl.warm {
		e.tb.on.Store(traceLoads)
		for _, r := range e.corpus.Runs {
			if err := e.touch(ctx, client, r.Name); err != nil {
				e.close()
				return nil, err
			}
		}
		e.tb.on.Store(false)
	}
	return e, nil
}

// streamSeed is the seed of stream script i.
func streamSeed(seed int64, i int) int64 { return seed + 100 + int64(i) }

// touch loads one run into the server's cache with a trivial query.
func (e *env) touch(ctx context.Context, client *http.Client, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/reachable?run="+name+"&from=0&to=0", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("warm-up %s: %w", name, err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("warm-up %s: %w", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// close stops the server and waits until it has stopped serving.
func (e *env) close() {
	if err := e.hs.Close(); err != nil {
		logf("closing server: %v", err)
	}
	select {
	case err := <-e.serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logf("server stopped: %v", err)
		}
	case <-time.After(10 * time.Second):
		logf("server did not stop within 10s")
	}
}

// lookupModule resolves a module name in the corpus specification.
func (e *env) lookupModule(name string) (dag.VertexID, bool) {
	return e.sp.VertexOf(spec.ModuleName(name))
}

// storedBytesPerVertex sums the backend bytes (run document plus label
// snapshot) of every stored run and divides by the stored vertices.
func (e *env) storedBytesPerVertex() (float64, error) {
	b := e.raw.Backend()
	var bytes, vertices int64
	for _, r := range e.corpus.Runs {
		for _, open := range []func(string) (io.ReadCloser, error){b.ReadRun, b.ReadLabels} {
			rc, err := open(r.Name)
			if err != nil {
				return 0, err
			}
			n, err := io.Copy(io.Discard, rc)
			rc.Close()
			if err != nil {
				return 0, err
			}
			bytes += n
		}
		vertices += int64(r.Vertices)
	}
	return float64(bytes) / float64(vertices), nil
}
