package run

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/spec"
	"repro/internal/workload"
)

func TestNamerMatchesNameOf(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(1))
	r, _ := GenerateSized(s, rng, 400)
	nm := NewNamer(r)
	for v := 0; v < r.NumVertices(); v++ {
		vid := dag.VertexID(v)
		want := r.NameOf(vid)
		if got := nm.Name(vid); got != want {
			t.Fatalf("Name(%d) = %q, want %q", v, got, want)
		}
		back, ok := nm.Vertex(want)
		if !ok || back != vid {
			t.Fatalf("Vertex(%q) = %d,%v", want, back, ok)
		}
	}
	if _, ok := nm.Vertex("nonexistent99"); ok {
		t.Error("Vertex found a nonexistent name")
	}
}

// TestNamerMatchesSprintf pins the arena namer to the names the
// fmt.Sprintf namer it replaced produced — module name, then the 1-based
// occurrence count of that module — for every vertex of runs over specs
// with short and long module names.
func TestNamerMatchesSprintf(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), workload.MustStandIn("QBLAST", 1), spec.LinearSpec(12)}
	for _, s := range specs {
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 4; trial++ {
			r, _ := GenerateSized(s, rng, 50+rng.Intn(3000))
			nm := NewNamer(r)
			counts := make(map[dag.VertexID]int)
			// Names can collide (module v4's 11th copy and module v41's
			// first are both v411); the old index kept the last vertex.
			old := make(map[string]dag.VertexID)
			for v, o := range r.Origin {
				counts[o]++
				want := fmt.Sprintf("%s%d", s.NameOf(o), counts[o])
				if got := nm.Name(dag.VertexID(v)); got != want {
					t.Fatalf("Name(%d) = %q, want %q", v, got, want)
				}
				if got := VertexName(s.NameOf(o), counts[o]); got != want {
					t.Fatalf("VertexName = %q, want %q", got, want)
				}
				old[want] = dag.VertexID(v)
			}
			for name, v := range old {
				if back, ok := nm.Vertex(name); !ok || back != v {
					t.Fatalf("Vertex(%q) = %d,%v, want %d", name, back, ok, v)
				}
			}
		}
	}
}

func BenchmarkNewNamer(b *testing.B) {
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := GenerateSized(s, rand.New(rand.NewSource(2)), 1100)
	b.ReportAllocs()
	for b.Loop() {
		NewNamer(r)
	}
}

func BenchmarkNamerLookup(b *testing.B) {
	s := spec.PaperSpec()
	r, _ := GenerateSized(s, rand.New(rand.NewSource(2)), 5000)
	nm := NewNamer(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nm.Name(dag.VertexID(i % r.NumVertices()))
	}
}
