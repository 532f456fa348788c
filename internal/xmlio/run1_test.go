package xmlio_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// decodeBoth decodes the XML and the RUN1 encoding of one run and
// annotation.
func decodeBoth(t *testing.T, r *run.Run, ann *provdata.Annotation) (xr, br *run.Run, xa, ba *provdata.Annotation) {
	t.Helper()
	var doc bytes.Buffer
	if err := xmlio.EncodeRun(&doc, r, ann, "w"); err != nil {
		t.Fatal(err)
	}
	xr, xa, err := xmlio.DecodeRun(&doc, r.Spec)
	if err != nil {
		t.Fatalf("XML decode: %v", err)
	}
	br, ba, err = xmlio.DecodeRun(bytes.NewReader(xmlio.AppendRun1(nil, r, ann)), r.Spec)
	if err != nil {
		t.Fatalf("RUN1 decode: %v", err)
	}
	return xr, br, xa, ba
}

// TestRun1MatchesXML is the differential check of the two run codecs:
// over random runs of the QBLAST stand-in and the paper specification,
// with and without data items, decoding RUN1 yields exactly what
// decoding XML yields — edge order, in-adjacency order, item IDs and
// consumer order included.
func TestRun1MatchesXML(t *testing.T) {
	specs := map[string]*spec.Spec{
		"paper":  spec.PaperSpec(),
		"qblast": workload.MustStandIn("QBLAST", 1),
	}
	for name, s := range specs {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 12; trial++ {
			r, _ := run.GenerateSized(s, rng, 20+rng.Intn(1200))
			var ann *provdata.Annotation
			if trial%3 != 0 {
				ann = provdata.RandomItems(r, rng, 1+rng.Float64(), rng.Float64())
			}
			xr, br, xa, ba := decodeBoth(t, r, ann)
			if !reflect.DeepEqual(xr.Graph.Edges(), br.Graph.Edges()) {
				t.Fatalf("%s/%d: Graph.Edges order differs", name, trial)
			}
			for v := 0; v < xr.NumVertices(); v++ {
				if !reflect.DeepEqual(xr.Graph.In(dag.VertexID(v)), br.Graph.In(dag.VertexID(v))) {
					t.Fatalf("%s/%d: in-adjacency of %d differs: %v vs %v", name, trial, v,
						xr.Graph.In(dag.VertexID(v)), br.Graph.In(dag.VertexID(v)))
				}
			}
			if (xa == nil) != (ba == nil) {
				t.Fatalf("%s/%d: annotation presence differs", name, trial)
			}
			if xa != nil {
				for i := range xa.Items {
					if !reflect.DeepEqual(xa.Items[i], ba.Items[i]) {
						t.Fatalf("%s/%d: item %d differs: %+v vs %+v", name, trial, i, xa.Items[i], ba.Items[i])
					}
				}
			}
			if !reflect.DeepEqual(xr, br) || !reflect.DeepEqual(xa, ba) {
				t.Fatalf("%s/%d: decoded run or annotation differs", name, trial)
			}
		}
	}
}

// TestRun1NormalizesItemsLikeXML feeds an annotation whose items are
// listed out of document order, share a name across producers and fan
// out to several consumers: both codecs must number and order them the
// same way.
func TestRun1NormalizesItemsLikeXML(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(5)), 60)
	ann := provdata.RandomItems(r, rand.New(rand.NewSource(6)), 2, 0.8)
	for i, j := 0, len(ann.Items)-1; i < j; i, j = i+1, j-1 {
		ann.Items[i], ann.Items[j] = ann.Items[j], ann.Items[i]
	}
	for i := range ann.Items {
		ann.Items[i].ID = provdata.ItemID(i)
		ann.Items[i].Name = "x" + string(rune('a'+i%3))
	}
	xr, br, xa, ba := decodeBoth(t, r, ann)
	if !reflect.DeepEqual(xr, br) || !reflect.DeepEqual(xa, ba) {
		t.Fatal("RUN1 and XML decode the reordered annotation differently")
	}
}

// TestRun1IsCompact pins the point of the format: a stored run costs a
// small fraction of its XML document.
func TestRun1IsCompact(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(3)), 1000)
	var doc bytes.Buffer
	if err := xmlio.EncodeRun(&doc, r, nil, "qblast"); err != nil {
		t.Fatal(err)
	}
	bin := xmlio.AppendRun1(nil, r, nil)
	if len(bin)*8 > doc.Len() {
		t.Errorf("RUN1 is %d bytes, XML %d: want at least 8x smaller", len(bin), doc.Len())
	}
}

// run1Doc is a small valid RUN1 document of the paper's Figure 3 run
// with one data item per channel.
func run1Doc(t testing.TB) ([]byte, *spec.Spec) {
	s := spec.PaperSpec()
	r, _ := run.Figure3Run(s)
	return xmlio.AppendRun1(nil, r, provdata.RandomItems(r, rand.New(rand.NewSource(1)), 1, 0)), s
}

// TestRun1RejectsHostileInput covers the header bounds: every strict
// prefix, trailing bytes, counts larger than the input, and endpoints
// out of range are errors, never panics or large allocations.
func TestRun1RejectsHostileInput(t *testing.T) {
	doc, s := run1Doc(t)
	if _, _, err := xmlio.DecodeRun(bytes.NewReader(doc), s); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	for i := len("RUN1"); i < len(doc); i++ {
		if _, _, err := xmlio.DecodeRun(bytes.NewReader(doc[:i]), s); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", i, len(doc))
		}
	}
	hdr := func(vals ...uint64) []byte {
		b := []byte("RUN1")
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := map[string][]byte{
		"trailing garbage":   append(append([]byte(nil), doc...), 0),
		"huge vertex count":  hdr(1<<62, 0, 0),
		"vertex count > len": hdr(40, 0, 0, 0, 0),
		"origin out of spec": hdr(2, 99, 0, 1, 2, 0, 0, 0),
		"head out of range":  hdr(2, 0, 1, 1, 4, 0, 0, 0),
		"huge out-degree":    hdr(2, 0, 1, 1<<40, 0, 0, 0, 0),
		"huge name count":    hdr(2, 0, 1, 1, 2, 0, 1<<50),
		"huge name length":   hdr(2, 0, 1, 1, 2, 0, 1, 1<<50),
		"huge item count":    hdr(2, 0, 1, 1, 2, 0, 1, 1, 'x', 1<<50),
		"name index > table": hdr(2, 0, 1, 1, 2, 0, 1, 1, 'x', 1, 3, 0, 1, 2),
		"producer too big":   hdr(2, 0, 1, 1, 2, 0, 1, 1, 'x', 1, 0, 7, 1, 2),
		"huge consumer list": hdr(2, 0, 1, 1, 2, 0, 1, 1, 'x', 1, 0, 0, 1<<50),
		"empty":              []byte("RUN1"),
	}
	for name, b := range cases {
		if _, _, err := xmlio.DecodeRun(bytes.NewReader(b), s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeRunSniffsXML keeps the XML path for anything without the
// raw magic, including inputs shorter than the magic and XML text that
// starts with the magic's letters.
func TestDecodeRunSniffsXML(t *testing.T) {
	s := spec.PaperSpec()
	for _, in := range []string{"", "RUN", "<run", " RUN1", "RUN2abc"} {
		_, _, err := xmlio.DecodeRun(strings.NewReader(in), s)
		if err == nil || !strings.Contains(err.Error(), "decode run") {
			t.Errorf("%q: want an XML decode error, got %v", in, err)
		}
	}
}

// BenchmarkDecodeRun compares the two run codecs' full decode (parse,
// graph build, validation) on a QBLAST stand-in run of ~1400 vertices,
// without and with data items.
func BenchmarkDecodeRun(b *testing.B) {
	s := workload.MustStandIn("QBLAST", 1)
	rng := rand.New(rand.NewSource(2))
	r, _ := run.GenerateSized(s, rng, 1100)
	for _, ann := range []*provdata.Annotation{nil, provdata.RandomItems(r, rng, 1.2, 0.3)} {
		var doc bytes.Buffer
		if err := xmlio.EncodeRun(&doc, r, ann, "qblast"); err != nil {
			b.Fatal(err)
		}
		suffix := ""
		if ann != nil {
			suffix = "+items"
		}
		for _, c := range []struct {
			name string
			doc  []byte
		}{{"xml", doc.Bytes()}, {"run1", xmlio.AppendRun1(nil, r, ann)}} {
			b.Run(c.name+suffix, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(c.doc)))
				for b.Loop() {
					if _, _, err := xmlio.DecodeRun(bytes.NewReader(c.doc), s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
