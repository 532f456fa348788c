package xmlio

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
)

// RUN1 is the binary, columnar run document the store keeps: the same
// content as the XML run document (graph, origins, data items) in a
// form that decodes without a tokenizer, following the SKL2 snapshot
// design in internal/core. All integers are varints:
//
//	"RUN1"                     4 raw magic bytes
//	n                          uvarint vertex count
//	origin[0..n)               uvarint spec vertex per run vertex
//	per vertex u in 0..n:      uvarint out-degree d, then d zigzag
//	                           varint head deltas (first from u, then
//	                           from the previous head)
//	k, k × (len, bytes)        string table of item names
//	m, m × item                uvarint name index, uvarint producer,
//	                           uvarint consumer count c, then c zigzag
//	                           varint consumer deltas (first from the
//	                           producer)
//
// Edges are stored in Graph.Edges order and items in the order the XML
// decoder numbers them, so a RUN1 document decodes to exactly the run
// and annotation the XML document of the same run decodes to: equal
// origins, the same out- and in-adjacency order, the same item IDs and
// consumer order. The one exception is an item name XML cannot carry
// (invalid UTF-8 or a control character): RUN1 keeps its bytes, while
// the XML encoder substitutes them. A well-formed XML document opens
// with markup or whitespace, never with the raw magic, which is how
// DecodeRun tells the two apart.

const run1Magic = "RUN1"

// run1PreallocVertices bounds what the decoder allocates per column
// before the input has shown it holds that many entries; beyond it the
// columns grow as bytes are consumed (as SKL2's readers do).
const run1PreallocVertices = 1 << 16

// AppendRun1 appends the RUN1 encoding of the run and its data items
// (ann may be nil) to dst.
func AppendRun1(dst []byte, r *run.Run, ann *provdata.Annotation) []byte {
	dst = append(dst, run1Magic...)
	n := r.NumVertices()
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, o := range r.Origin {
		dst = binary.AppendUvarint(dst, uint64(o))
	}
	for u := 0; u < n; u++ {
		heads := r.Graph.Out(dag.VertexID(u))
		dst = binary.AppendUvarint(dst, uint64(len(heads)))
		prev := int64(u)
		for _, v := range heads {
			dst = binary.AppendVarint(dst, int64(v)-prev)
			prev = int64(v)
		}
	}
	items := documentItems(r, ann)
	index := make(map[string]int)
	var names []string
	for _, it := range items {
		if _, ok := index[it.Name]; !ok {
			index[it.Name] = len(names)
			names = append(names, it.Name)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, s := range names {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(index[it.Name]))
		dst = binary.AppendUvarint(dst, uint64(it.Producer))
		dst = binary.AppendUvarint(dst, uint64(len(it.Consumers)))
		prev := int64(it.Producer)
		for _, c := range it.Consumers {
			dst = binary.AppendVarint(dst, int64(c)-prev)
			prev = int64(c)
		}
	}
	return dst
}

// documentItems returns the items of ann as a run document carries
// them: each item travels on the channels from its producer to its
// consumers, and reading the channels back in Graph.Edges order
// numbers the items. Both codecs store exactly this list, which is what
// makes them decode to equal annotations.
func documentItems(r *run.Run, ann *provdata.Annotation) []provdata.Item {
	if ann == nil || len(ann.Items) == 0 {
		return nil
	}
	itemsOn := channelItems(ann)
	var g itemGrouper
	for _, e := range r.Graph.Edges() {
		for _, name := range itemsOn[e] {
			g.add(e.Tail, e.Head, name)
		}
	}
	return g.items()
}

// run1Reader walks a RUN1 document. The first malformed field sets err;
// later reads then return zero, so callers check err once per section.
type run1Reader struct {
	data []byte
	pos  int
	err  error
}

func (d *run1Reader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("xmlio: RUN1 document: "+format, args...)
	}
}

func (d *run1Reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos < len(d.data) && d.data[d.pos] < 0x80 {
		d.pos++
		return uint64(d.data[d.pos-1])
	}
	v, k := binary.Uvarint(d.data[d.pos:])
	if k <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.pos)
		return 0
	}
	d.pos += k
	return v
}

func (d *run1Reader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Varint(d.data[d.pos:])
	if k <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.pos)
		return 0
	}
	d.pos += k
	return v
}

// count reads a declared element count and caps it by the bytes that
// remain, given that each element takes at least minBytes of them: a
// hostile header fails here instead of driving an allocation.
func (d *run1Reader) count(what string, minBytes int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64((len(d.data)-d.pos)/minBytes) {
		d.fail("%s count %d exceeds the %d remaining bytes", what, v, len(d.data)-d.pos)
		return 0
	}
	return int(v)
}

// index reads a uvarint and checks it is below n.
func (d *run1Reader) index(n int, what string) int64 {
	v := d.uvarint()
	if d.err == nil && v >= uint64(n) {
		d.fail("%s %d out of range [0,%d)", what, v, n)
	}
	return int64(v)
}

// vertex reads a zigzag delta from prev and checks the result is one of
// the document's n vertices.
func (d *run1Reader) vertex(prev int64, n int, what string) int64 {
	v := prev + d.varint()
	if d.err == nil && (v < 0 || v >= int64(n)) {
		d.fail("%s %d out of range [0,%d)", what, v, n)
	}
	return v
}

// decodeRun1 decodes the body of a RUN1 document (what follows the
// magic) against the specification and validates it as the XML path
// does.
func decodeRun1(data []byte, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	d := &run1Reader{data: data}
	// Every vertex takes at least an origin byte and a degree byte.
	n := d.count("vertex", 2)
	numSpec := s.NumVertices()
	origin := make([]dag.VertexID, 0, min(n, run1PreallocVertices))
	for v := 0; v < n && d.err == nil; v++ {
		origin = append(origin, dag.VertexID(d.index(numSpec, "origin")))
	}
	// Heads land in one flat column, cut into per-vertex lists at ends.
	heads := make([]dag.VertexID, 0, min(n, run1PreallocVertices))
	ends := make([]int, 0, min(n, run1PreallocVertices))
	for u := 0; u < n && d.err == nil; u++ {
		deg := d.count("out-degree", 1)
		prev := int64(u)
		for j := 0; j < deg && d.err == nil; j++ {
			prev = d.vertex(prev, n, "edge head")
			heads = append(heads, dag.VertexID(prev))
		}
		ends = append(ends, len(heads))
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	out := splitColumn(heads, ends)
	r := &run.Run{Spec: s, Graph: dag.FromOut(out), Origin: origin}

	// The string table is sliced from one string: one allocation for
	// every item name.
	numNames := d.count("item name", 1)
	spans := make([][2]int, 0, min(numNames, run1PreallocVertices))
	start := d.pos
	for i := 0; i < numNames && d.err == nil; i++ {
		l := d.count("item name byte", 1)
		spans = append(spans, [2]int{d.pos - start, d.pos - start + l})
		d.pos += l
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	table := string(data[start:d.pos])
	names := make([]string, numNames)
	for i, sp := range spans {
		names[i] = table[sp[0]:sp[1]]
	}

	// Every item takes at least a name index, a producer and a count.
	// Consumers share one flat column the same way heads do.
	m := d.count("item", 3)
	items := make([]provdata.Item, 0, min(m, run1PreallocVertices))
	itemEnds := make([]int, 0, min(m, run1PreallocVertices))
	var consumers []dag.VertexID
	for i := 0; i < m && d.err == nil; i++ {
		ni := d.index(numNames, "item name index")
		p := d.index(n, "item producer")
		c := d.count("consumer", 1)
		prev := p
		for j := 0; j < c && d.err == nil; j++ {
			prev = d.vertex(prev, n, "item consumer")
			consumers = append(consumers, dag.VertexID(prev))
		}
		if d.err != nil {
			break
		}
		items = append(items, provdata.Item{ID: provdata.ItemID(i), Name: names[ni], Producer: dag.VertexID(p)})
		itemEnds = append(itemEnds, len(consumers))
	}
	for i, list := range splitColumn(consumers, itemEnds) {
		items[i].Consumers = list
	}
	if d.err == nil && d.pos != len(data) {
		d.fail("%d trailing bytes", len(data)-d.pos)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return validated(r, items)
}

// splitColumn cuts a flat column into the lists ending at ends, each
// capped so that appending to one list never writes into the next.
func splitColumn(col []dag.VertexID, ends []int) [][]dag.VertexID {
	lists := make([][]dag.VertexID, len(ends))
	lo := 0
	for i, hi := range ends {
		lists[i] = col[lo:hi:hi]
		lo = hi
	}
	return lists
}
