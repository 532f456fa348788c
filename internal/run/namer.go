package run

import (
	"strconv"

	"repro/internal/dag"
	"repro/internal/spec"
)

// Namer resolves the display names of run vertices (module name plus
// occurrence subscript) in O(1) after an O(n) build, replacing the O(n)
// per-call Run.NameOf for callers that name many vertices.
type Namer struct {
	names  []string
	byName map[string]dag.VertexID
}

// VertexName renders the display name of the occurrence-th copy
// (1-based) of a module: the module name followed by the decimal
// occurrence, b1, b2, ... as in the paper. Every namer in the system
// (Namer, Run.NameOf, the live sessions' incremental numbering) renders
// names through it.
func VertexName(module spec.ModuleName, occurrence int) string {
	return string(appendVertexName(nil, module, occurrence))
}

func appendVertexName(dst []byte, module spec.ModuleName, occurrence int) []byte {
	return strconv.AppendInt(append(dst, module...), int64(occurrence), 10)
}

// NewNamer indexes all vertex names of the run. The names are written
// back to back into one arena and sliced from it, so the build costs a
// handful of allocations however many vertices the run has.
func NewNamer(r *Run) *Namer {
	n := r.NumVertices()
	counts := make([]int, r.Spec.NumVertices())
	size := 0
	for _, o := range r.Origin {
		counts[o]++
		size += len(r.Spec.NameOf(o)) + decimalDigits(counts[o])
	}
	clear(counts)
	arena := make([]byte, 0, size)
	ends := make([]int, n)
	for v, o := range r.Origin {
		counts[o]++
		arena = appendVertexName(arena, r.Spec.NameOf(o), counts[o])
		ends[v] = len(arena)
	}
	all := string(arena)
	names := make([]string, n)
	byName := make(map[string]dag.VertexID, n)
	start := 0
	for v, end := range ends {
		name := all[start:end]
		names[v] = name
		byName[name] = dag.VertexID(v)
		start = end
	}
	return &Namer{names: names, byName: byName}
}

// decimalDigits returns the number of decimal digits of k >= 0.
func decimalDigits(k int) int {
	d := 1
	for ; k >= 10; k /= 10 {
		d++
	}
	return d
}

// Name returns the display name of vertex v.
func (nm *Namer) Name(v dag.VertexID) string { return nm.names[v] }

// Vertex resolves a display name back to its vertex.
func (nm *Namer) Vertex(name string) (dag.VertexID, bool) {
	v, ok := nm.byName[name]
	return v, ok
}

// VertexBytes is Vertex for a byte-slice key: the compiler elides the
// string conversion in the map index, so lookup hot paths (the query
// server's hand-rolled /batch decoder) resolve names with zero
// allocation.
func (nm *Namer) VertexBytes(name []byte) (dag.VertexID, bool) {
	v, ok := nm.byName[string(name)]
	return v, ok
}
