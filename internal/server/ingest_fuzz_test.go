package server

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/xmlio"
)

// FuzzIngestRun throws hostile bodies at the write path: whatever the
// bytes, PUT /runs/{name} must answer 200 (stored), 4xx (rejected) or
// 413 (too large) — never 5xx, never a panic, and never unbounded
// allocation (the body cap is set low so the fuzzer can cross it). A
// 200 must really mean stored: the run must be listed and queryable
// afterwards. This mirrors the PR-3 hostile-snapshot-header hardening,
// one layer up the stack.
func FuzzIngestRun(f *testing.F) {
	sp := spec.PaperSpec()
	// Seeds from the xmlio corpus: a real generated run (with data
	// items), the paper's Figure 3 run, and structurally hostile
	// variants — truncation, huge ids, wrong root, entity tricks.
	rng := rand.New(rand.NewSource(42))
	r, _ := run.GenerateSized(sp, rng, 90)
	ann := provdata.RandomItems(r, rng, 1.0, 0.3)
	var genDoc bytes.Buffer
	if err := xmlio.EncodeRun(&genDoc, r, ann, "paper"); err != nil {
		f.Fatal(err)
	}
	fig3, _ := run.Figure3Run(sp)
	var figDoc bytes.Buffer
	if err := xmlio.EncodeRun(&figDoc, fig3, nil, "paper"); err != nil {
		f.Fatal(err)
	}
	f.Add(genDoc.String())
	f.Add(figDoc.String())
	f.Add(string(xmlio.AppendRun1(nil, r, ann))) // PUT /runs also takes RUN1
	f.Add(genDoc.String()[:genDoc.Len()/2])
	f.Add(`<run><vertices><vertex id="0" module="a"/></vertices><edges/></run>`)
	f.Add(`<run><vertices><vertex id="4294967295" module="a"/></vertices><edges/></run>`)
	f.Add(`<run><vertices><vertex id="0" module="a"/></vertices><edges><edge from="0" to="999999999"/></edges></run>`)
	f.Add(`<workflow>not a run</workflow>`)
	f.Add(`<run>` + strings.Repeat(`<vertices>`, 200))
	f.Add(`<?xml version="1.0"?><!DOCTYPE run [<!ENTITY a "aaaa">]><run>&a;</run>`)
	f.Add("")

	st, err := store.NewMem(sp, "paper")
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: st, EnableIngest: true, MaxIngestBytes: 1 << 18})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/fz", strings.NewReader(body)))
		switch {
		case rec.Code >= 500:
			t.Fatalf("ingest answered %d for a client-supplied body: %s", rec.Code, rec.Body.String())
		case rec.Code == 200:
			// An accepted run must actually serve.
			qr := httptest.NewRecorder()
			s.ServeHTTP(qr, httptest.NewRequest("GET", "/runs?run=fz", nil))
			if qr.Code != 200 {
				t.Fatalf("ingest accepted a run that does not serve: %d %s", qr.Code, qr.Body.String())
			}
		}
	})
}
