// Package run implements workflow runs: graphs derived from a
// specification by fork and loop executions (Definition 6), the execution
// trees that describe them, a materializer that builds the run graph (and
// its ground-truth execution plan) from an execution tree, and random run
// generation by the paper's copy-duplication semantics.
package run

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/spec"
)

// Run is a workflow run of a specification.
type Run struct {
	// Spec is the specification this run conforms to.
	Spec *spec.Spec
	// Graph is the run graph R.
	Graph *dag.Graph
	// Origin maps each run vertex to its specification vertex (Def. 8).
	// In the paper this is recovered from module names; module names in a
	// run are the spec module name of the origin (plus an occurrence
	// subscript when rendered).
	Origin []dag.VertexID
}

// NumVertices returns |V(R)|.
func (r *Run) NumVertices() int { return r.Graph.NumVertices() }

// NumEdges returns |E(R)|.
func (r *Run) NumEdges() int { return r.Graph.NumEdges() }

// NameOf renders the unique display name of run vertex v: the module name
// of its origin plus the vertex's rank among copies of that origin
// (matching the paper's b1, b2, ... convention).
func (r *Run) NameOf(v dag.VertexID) string {
	rank := 1
	for u := dag.VertexID(0); u < v; u++ {
		if r.Origin[u] == r.Origin[v] {
			rank++
		}
	}
	return VertexName(r.Spec.NameOf(r.Origin[v]), rank)
}

// Validate checks the basic conformance invariants of the run that do not
// require reconstructing the execution plan:
//
//   - R is an acyclic flow network whose terminals originate from the
//     specification terminals;
//   - every origin is a valid specification vertex;
//   - every run edge's origin pair is either a specification edge or a
//     loop connector (t(H), s(H)) for some loop H.
func (r *Run) Validate() error {
	if len(r.Origin) != r.Graph.NumVertices() {
		return fmt.Errorf("run: %d origins for %d vertices", len(r.Origin), r.Graph.NumVertices())
	}
	n := dag.VertexID(r.Spec.NumVertices())
	for v, o := range r.Origin {
		if o < 0 || o >= n {
			return fmt.Errorf("run: vertex %d has invalid origin %d", v, o)
		}
	}
	src, snk, err := r.Graph.FlowNetworkTerminals()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if r.Origin[src] != r.Spec.Source {
		return fmt.Errorf("run: source originates from %q, want %q",
			r.Spec.NameOf(r.Origin[src]), r.Spec.NameOf(r.Spec.Source))
	}
	if r.Origin[snk] != r.Spec.Sink {
		return fmt.Errorf("run: sink originates from %q, want %q",
			r.Spec.NameOf(r.Origin[snk]), r.Spec.NameOf(r.Spec.Sink))
	}
	connector := make(map[dag.Edge]bool)
	for _, sub := range r.Spec.Subgraphs {
		if sub.Kind == spec.Loop {
			connector[dag.Edge{Tail: sub.Sink, Head: sub.Source}] = true
		}
	}
	for _, e := range r.Graph.Edges() {
		oe := dag.Edge{Tail: r.Origin[e.Tail], Head: r.Origin[e.Head]}
		if !r.Spec.Graph.HasEdge(oe.Tail, oe.Head) && !connector[oe] {
			return fmt.Errorf("run: edge %d->%d originates from (%q,%q), which is neither a spec edge nor a loop connector",
				e.Tail, e.Head, r.Spec.NameOf(oe.Tail), r.Spec.NameOf(oe.Head))
		}
	}
	return nil
}

// OriginByName computes the origin function for a run graph whose vertex
// module names are given explicitly (e.g. decoded from XML): each run
// vertex's module name must be a specification module name.
func OriginByName(s *spec.Spec, names []spec.ModuleName) ([]dag.VertexID, error) {
	origin := make([]dag.VertexID, len(names))
	for v, name := range names {
		o, ok := s.VertexOf(name)
		if !ok {
			return nil, fmt.Errorf("run: vertex %d has module %q not present in the specification", v, name)
		}
		origin[v] = o
	}
	return origin, nil
}
