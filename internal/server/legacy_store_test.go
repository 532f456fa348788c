package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/xmlio"
)

// legacyFixture is one run of the legacy-store tests.
type legacyFixture struct {
	name string
	r    *run.Run
	ann  *provdata.Annotation
}

func legacyFixtures(sp *spec.Spec) []legacyFixture {
	rng := rand.New(rand.NewSource(21))
	var fx []legacyFixture
	for i, name := range []string{"alpha", "beta", "gamma", "delta"} {
		r, _ := run.GenerateSized(sp, rng, 60+70*i)
		var ann *provdata.Annotation
		if i%2 == 0 {
			ann = provdata.RandomItems(r, rng, 1.3, 0.4)
		}
		fx = append(fx, legacyFixture{name, r, ann})
	}
	return fx
}

// fillStore puts every fixture into a store over b, then rewrites the
// run documents of the names in asXML as XML — byte for byte what
// stores wrote before runs were kept as RUN1 — next to their labels.
func fillStore(t *testing.T, b store.Backend, sp *spec.Spec, fx []legacyFixture, asXML func(i int) bool) {
	t.Helper()
	st, err := store.New(b, sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fx {
		if err := st.PutRun(f.name, f.r, f.ann, label.TCM{}); err != nil {
			t.Fatal(err)
		}
		if !asXML(i) {
			continue
		}
		labels := readBlob(t, b.ReadLabels, f.name)
		var doc bytes.Buffer
		if err := xmlio.EncodeRun(&doc, f.r, f.ann, "paper"); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteRun(f.name, doc.Bytes(), labels); err != nil {
			t.Fatal(err)
		}
	}
}

func readBlob(t *testing.T, open func(string) (io.ReadCloser, error), name string) []byte {
	t.Helper()
	rc, err := open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyQueries is a fixed battery over every fixture: reachability by
// ID and by name, one /batch of all those pairs, lineage both ways and
// an RPQ, as method/target/body triples.
func legacyQueries(fx []legacyFixture) [][3]string {
	rng := rand.New(rand.NewSource(4))
	var qs [][3]string
	for _, f := range fx {
		nm := run.NewNamer(f.r)
		n := f.r.NumVertices()
		var pairs []string
		for k := 0; k < 12; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			from, to := nm.Name(dag.VertexID(u)), fmt.Sprint(v)
			qs = append(qs, [3]string{http.MethodGet, "/reachable?run=" + f.name + "&from=" + from + "&to=" + to, ""})
			pairs = append(pairs, fmt.Sprintf(`["%s",%d]`, from, v))
		}
		qs = append(qs, [3]string{http.MethodPost, "/batch",
			`{"run":"` + f.name + `","pairs":[` + strings.Join(pairs, ",") + `]}`})
		for _, dir := range []string{"up", "down"} {
			qs = append(qs, [3]string{http.MethodGet,
				"/lineage?run=" + f.name + "&dir=" + dir + "&vertex=" + nm.Name(dag.VertexID(rng.Intn(n))), ""})
		}
		qs = append(qs, [3]string{http.MethodPost, "/rpq",
			`{"run":"` + f.name + `","from":"0","to":"` + fmt.Sprint(n-1) + `","pattern":"a.*h"}`})
	}
	return qs
}

// TestLegacyXMLStoresAnswerIdentically opens stores whose run documents
// are XML, and stores mixing XML and RUN1 documents, over every way a
// store reaches the server (mem:, fs://, mem://dir preload, store.Copy
// of a legacy fs store), with no migration step, and requires every
// answer to be byte-identical to a store written as RUN1.
func TestLegacyXMLStoresAnswerIdentically(t *testing.T) {
	sp := spec.PaperSpec()
	fx := legacyFixtures(sp)
	all := func(int) bool { return true }
	half := func(i int) bool { return i%2 == 1 }
	none := func(int) bool { return false }

	refBackend := store.NewMemBackend()
	fillStore(t, refBackend, sp, fx, none)
	if doc := readBlob(t, refBackend.ReadRun, "alpha"); !bytes.HasPrefix(doc, []byte("RUN1")) {
		t.Fatalf("the store wrote a run document starting %q, want RUN1", doc[:8])
	}

	open := func(t *testing.T, url string) *store.Store {
		t.Helper()
		st, err := store.OpenURL(url)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	fsStore := func(t *testing.T, asXML func(int) bool) string {
		dir := filepath.Join(t.TempDir(), "store")
		fillStore(t, store.NewFSBackend(dir), sp, fx, asXML)
		return dir
	}
	memStore := func(t *testing.T, asXML func(int) bool) *store.Store {
		b := store.NewMemBackend()
		fillStore(t, b, sp, fx, asXML)
		st, err := store.OpenBackend(b)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	variants := map[string]func(t *testing.T) *store.Store{
		"mem: xml":   func(t *testing.T) *store.Store { return memStore(t, all) },
		"mem: mixed": func(t *testing.T) *store.Store { return memStore(t, half) },
		"fs xml":     func(t *testing.T) *store.Store { return open(t, "fs://"+fsStore(t, all)) },
		"fs mixed":   func(t *testing.T) *store.Store { return open(t, "fs://"+fsStore(t, half)) },
		"mem://dir":  func(t *testing.T) *store.Store { return open(t, "mem://"+fsStore(t, all)) },
		"copy to fs": func(t *testing.T) *store.Store {
			dst := filepath.Join(t.TempDir(), "copy")
			if err := store.Copy(store.NewFSBackend(dst), store.NewFSBackend(fsStore(t, all))); err != nil {
				t.Fatal(err)
			}
			return open(t, dst)
		},
		"copy to mem": func(t *testing.T) *store.Store {
			b := store.NewMemBackend()
			if err := store.Copy(b, store.NewFSBackend(fsStore(t, half))); err != nil {
				t.Fatal(err)
			}
			st, err := store.OpenBackend(b)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}

	refStore, err := store.OpenBackend(refBackend)
	if err != nil {
		t.Fatal(err)
	}
	ref := newTestServer(t, refStore, 2, 100)
	queries := legacyQueries(fx)
	want := make([]*bytes.Buffer, len(queries))
	for i, q := range queries {
		rec := do(t, ref, q[0], q[1], q[2], nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s %s: %d %s", q[0], q[1], rec.Code, rec.Body)
		}
		want[i] = rec.Body
	}
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			// A two-session cache makes the battery reload runs, so
			// every document is decoded more than once.
			s := newTestServer(t, mk(t), 2, 100)
			for i, q := range queries {
				rec := do(t, s, q[0], q[1], q[2], nil)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i].Bytes()) {
					t.Fatalf("%s %s %s:\n got %d %s\nwant %s", q[0], q[1], q[2], rec.Code, rec.Body, want[i])
				}
			}
		})
	}
}
