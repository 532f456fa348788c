package xmlio_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/xmlio"
)

// FuzzDecodeSpec ensures arbitrary XML never panics the spec decoder and
// that anything it accepts is a valid specification.
func FuzzDecodeSpec(f *testing.F) {
	var seed bytes.Buffer
	if err := xmlio.EncodeSpec(&seed, spec.PaperSpec(), "paper"); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`<workflow><modules><module name="a"/><module name="b"/></modules><edges><edge from="a" to="b"/></edges></workflow>`)
	f.Add(`<workflow>`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, input string) {
		s, _, err := xmlio.DecodeSpec(strings.NewReader(input))
		if err != nil {
			return
		}
		// Whatever decodes must satisfy the full model validation.
		if err := spec.Validate(s); err != nil {
			t.Fatalf("decoder accepted invalid spec: %v", err)
		}
	})
}

// FuzzDecodeRun ensures arbitrary input never panics the run decoder,
// XML or RUN1, that accepted runs pass validation against the paper
// specification, and that whatever it accepts encodes to XML and RUN1
// documents that decode to equal results.
func FuzzDecodeRun(f *testing.F) {
	s := spec.PaperSpec()
	r, _ := run.Figure3Run(s)
	var seed bytes.Buffer
	if err := xmlio.EncodeRun(&seed, r, nil, "paper"); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`<run><vertices><vertex id="0" module="a"/></vertices><edges/></run>`)
	f.Add(`<run>`)
	bin, _ := run1Doc(f)
	f.Add(string(bin))
	f.Add(string(bin[:len(bin)/2]))
	f.Add(string(bin) + "\x00garbage")
	f.Add("RUN1\xff\xff\xff\xff\xff\xff\xff\xff\x7f")
	f.Fuzz(func(t *testing.T, input string) {
		decoded, ann, err := xmlio.DecodeRun(strings.NewReader(input), s)
		if err != nil {
			return
		}
		if err := decoded.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid run: %v", err)
		}
		if ann != nil {
			if err := ann.Validate(); err != nil {
				t.Fatalf("decoder accepted invalid annotation: %v", err)
			}
		}
		if ann != nil && slices.ContainsFunc(ann.Items, func(it provdata.Item) bool { return !xmlText(it.Name) }) {
			return // XML cannot carry this item name, so the codecs may differ
		}
		xr, br, xa, ba := decodeBoth(t, decoded, ann)
		if !reflect.DeepEqual(xr, br) || !reflect.DeepEqual(xa, ba) {
			t.Fatal("XML and RUN1 encodings of an accepted run decode differently")
		}
	})
}

// xmlText reports whether s is valid UTF-8 made only of characters XML
// 1.0 allows in text, i.e. whether an XML document can carry it
// unchanged.
func xmlText(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		ok := r == 0x09 || r == 0x0A || r == 0x0D ||
			r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
		if !ok {
			return false
		}
	}
	return true
}
