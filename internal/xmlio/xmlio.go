// Package xmlio serializes workflow specifications, runs and data
// annotations. XML mirrors the paper's storage format ("both the
// specification and runs are stored as XML files") and stays the
// import/export format: PUT /runs bodies, provgen output, provquery
// input. Runs inside a store are kept as RUN1 instead (see run1.go), a
// binary columnar document that decodes without a tokenizer; DecodeRun
// reads both, telling them apart by RUN1's raw magic, so stores written
// as XML keep loading. Parsing time is excluded from all measurements,
// as in the paper.
package xmlio

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
)

// xmlSpec is the on-disk form of a specification.
type xmlSpec struct {
	XMLName   xml.Name      `xml:"workflow"`
	Name      string        `xml:"name,attr,omitempty"`
	Modules   []xmlModule   `xml:"modules>module"`
	Edges     []xmlSpecEdge `xml:"edges>edge"`
	Subgraphs []xmlSubgraph `xml:"subgraphs>subgraph"`
}

type xmlModule struct {
	Name string `xml:"name,attr"`
}

type xmlSpecEdge struct {
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
}

type xmlSubgraph struct {
	Kind  string        `xml:"kind,attr"` // "fork" or "loop"
	Edges []xmlSpecEdge `xml:"edge"`
}

// EncodeSpec writes the specification as XML.
func EncodeSpec(w io.Writer, s *spec.Spec, name string) error {
	x := xmlSpec{Name: name}
	for v := 0; v < s.NumVertices(); v++ {
		x.Modules = append(x.Modules, xmlModule{Name: string(s.Names[v])})
	}
	for _, e := range s.Graph.Edges() {
		x.Edges = append(x.Edges, xmlSpecEdge{From: string(s.Names[e.Tail]), To: string(s.Names[e.Head])})
	}
	for _, sub := range s.Subgraphs {
		xs := xmlSubgraph{Kind: sub.Kind.String()}
		for _, e := range sub.Edges {
			xs.Edges = append(xs.Edges, xmlSpecEdge{From: string(s.Names[e.Tail]), To: string(s.Names[e.Head])})
		}
		x.Subgraphs = append(x.Subgraphs, xs)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("xmlio: encode spec: %w", err)
	}
	enc.Flush()
	_, err := io.WriteString(w, "\n")
	return err
}

// DecodeSpec reads a specification from XML and validates it.
func DecodeSpec(r io.Reader) (*spec.Spec, string, error) {
	var x xmlSpec
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, "", fmt.Errorf("xmlio: decode spec: %w", err)
	}
	b := spec.NewBuilder()
	ids := make(map[string]dag.VertexID, len(x.Modules))
	for _, m := range x.Modules {
		ids[m.Name] = b.Module(spec.ModuleName(m.Name))
	}
	resolve := func(name string) (dag.VertexID, error) {
		id, ok := ids[name]
		if !ok {
			return 0, fmt.Errorf("xmlio: unknown module %q", name)
		}
		return id, nil
	}
	for _, e := range x.Edges {
		if _, err := resolve(e.From); err != nil {
			return nil, "", err
		}
		if _, err := resolve(e.To); err != nil {
			return nil, "", err
		}
		b.Edge(spec.ModuleName(e.From), spec.ModuleName(e.To))
	}
	for _, xs := range x.Subgraphs {
		var kind spec.Kind
		switch xs.Kind {
		case "fork":
			kind = spec.Fork
		case "loop":
			kind = spec.Loop
		default:
			return nil, "", fmt.Errorf("xmlio: unknown subgraph kind %q", xs.Kind)
		}
		edges := make([]dag.Edge, 0, len(xs.Edges))
		for _, e := range xs.Edges {
			u, err := resolve(e.From)
			if err != nil {
				return nil, "", err
			}
			v, err := resolve(e.To)
			if err != nil {
				return nil, "", err
			}
			edges = append(edges, dag.Edge{Tail: u, Head: v})
		}
		b.SubgraphEdges(kind, edges)
	}
	s, err := b.Build()
	if err != nil {
		return nil, "", err
	}
	return s, x.Name, nil
}

// xmlRun is the on-disk form of a run, optionally with data items.
type xmlRun struct {
	XMLName  xml.Name     `xml:"run"`
	Workflow string       `xml:"workflow,attr,omitempty"`
	Vertices []xmlVertex  `xml:"vertices>vertex"`
	Edges    []xmlRunEdge `xml:"edges>edge"`
}

type xmlVertex struct {
	ID     int    `xml:"id,attr"`
	Module string `xml:"module,attr"`
}

type xmlRunEdge struct {
	From  int      `xml:"from,attr"`
	To    int      `xml:"to,attr"`
	Items []string `xml:"data,omitempty"`
}

// EncodeRun writes the run (and, when ann is non-nil, its data items) as
// XML. Items shared across channels appear on every channel they flow
// over, identified by name, like x1 in Figure 11.
func EncodeRun(w io.Writer, r *run.Run, ann *provdata.Annotation, workflowName string) error {
	x := xmlRun{Workflow: workflowName}
	for v := 0; v < r.NumVertices(); v++ {
		x.Vertices = append(x.Vertices, xmlVertex{ID: v, Module: string(r.Spec.NameOf(r.Origin[v]))})
	}
	itemsOn := channelItems(ann)
	for _, e := range r.Graph.Edges() {
		x.Edges = append(x.Edges, xmlRunEdge{
			From:  int(e.Tail),
			To:    int(e.Head),
			Items: itemsOn[e],
		})
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("xmlio: encode run: %w", err)
	}
	enc.Flush()
	_, err := io.WriteString(w, "\n")
	return err
}

// channelItems maps each channel to the names of the items flowing over
// it, in annotation order.
func channelItems(ann *provdata.Annotation) map[dag.Edge][]string {
	itemsOn := make(map[dag.Edge][]string)
	if ann != nil {
		for _, it := range ann.Items {
			for _, c := range it.Consumers {
				e := dag.Edge{Tail: it.Producer, Head: c}
				itemsOn[e] = append(itemsOn[e], it.Name)
			}
		}
	}
	return itemsOn
}

// itemGrouper rebuilds data items from the (channel, item name) pairs
// of a run document, read in document order: an item is one (producer,
// name), numbered at its first channel, with its consumers in channel
// order.
type itemGrouper struct {
	consumers map[itemKey][]dag.VertexID
	order     []itemKey
}

type itemKey struct {
	producer dag.VertexID
	name     string
}

func (g *itemGrouper) add(from, to dag.VertexID, name string) {
	if g.consumers == nil {
		g.consumers = make(map[itemKey][]dag.VertexID)
	}
	k := itemKey{from, name}
	if _, ok := g.consumers[k]; !ok {
		g.order = append(g.order, k)
	}
	g.consumers[k] = append(g.consumers[k], to)
}

func (g *itemGrouper) items() []provdata.Item {
	var items []provdata.Item
	for i, k := range g.order {
		items = append(items, provdata.Item{
			ID:        provdata.ItemID(i),
			Name:      k.name,
			Producer:  k.producer,
			Consumers: g.consumers[k],
		})
	}
	return items
}

// DecodeRun reads a run document, RUN1 or XML, against the given
// specification and validates the run and its data annotation (nil when
// the document has no items). A document starting with RUN1's raw magic
// is binary; anything else is parsed as XML. Both forms of one run
// decode to deeply equal results.
func DecodeRun(rd io.Reader, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	var head [len(run1Magic)]byte
	n, err := io.ReadFull(rd, head[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, nil, fmt.Errorf("xmlio: read run: %w", err)
	}
	if string(head[:n]) != run1Magic {
		return decodeRunXML(io.MultiReader(bytes.NewReader(head[:n]), rd), s)
	}
	rest, err := io.ReadAll(rd)
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: read run: %w", err)
	}
	return decodeRun1(rest, s)
}

func decodeRunXML(rd io.Reader, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	var x xmlRun
	if err := xml.NewDecoder(rd).Decode(&x); err != nil {
		return nil, nil, fmt.Errorf("xmlio: decode run: %w", err)
	}
	names := make([]spec.ModuleName, len(x.Vertices))
	for i, v := range x.Vertices {
		if v.ID != i {
			return nil, nil, fmt.Errorf("xmlio: run vertex %d declared with id %d (ids must be dense and ordered)", i, v.ID)
		}
		names[i] = spec.ModuleName(v.Module)
	}
	origin, err := run.OriginByName(s, names)
	if err != nil {
		return nil, nil, err
	}
	g := dag.New(len(names))
	var items itemGrouper
	for _, e := range x.Edges {
		if e.From < 0 || e.From >= len(names) || e.To < 0 || e.To >= len(names) {
			return nil, nil, fmt.Errorf("xmlio: run edge %d->%d out of range", e.From, e.To)
		}
		g.AddEdge(dag.VertexID(e.From), dag.VertexID(e.To))
		for _, item := range e.Items {
			items.add(dag.VertexID(e.From), dag.VertexID(e.To), item)
		}
	}
	return validated(&run.Run{Spec: s, Graph: g, Origin: origin}, items.items())
}

// validated checks a decoded run and its items, whatever the codec: a
// stored document is trusted no more than an uploaded one.
func validated(r *run.Run, items []provdata.Item) (*run.Run, *provdata.Annotation, error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	if len(items) == 0 {
		return r, nil, nil
	}
	ann := &provdata.Annotation{Run: r, Items: items}
	if err := ann.Validate(); err != nil {
		return nil, nil, err
	}
	return r, ann, nil
}
