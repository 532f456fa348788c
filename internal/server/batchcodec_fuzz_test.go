package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzParseBatchRequest checks the hand-rolled /batch parser against
// encoding/json: it must never panic, and whenever it accepts a body,
// encoding/json must accept it too and agree on the run name and on
// every pair reference — string elements as the same decoded text
// (up to encoding/json's replacement of each invalid UTF-8 byte by
// U+FFFD; the parser keeps the raw bytes, which match no run name and
// no vertex name either way),
// numeric elements as the same integer (clamped past the vertex ID
// range, where both resolve to "unknown vertex").
func FuzzParseBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"run":"r1","pairs":[["b2","c3"],["12","34"]]}`,
		`{"run":"r1","pairs":[[12,34],[7,"c3"]]}`,
		`{"pairs":[],"run":"x","extra":{"a":[1,2.5e3,-0.1,true,false,null,"s"]}}`,
		` { "run" : "ab\n" , "pairs" : [ [ "😀" , 0 ] ] } `,
		`{"run":"r","pairs":[[1,2]],"pairs":[[3,4]],"run":"s"}`,
		`{"run":"r","pairs":[[0123,1]]}`,
		`{"run":"r","pairs":[["\ud800A",1]]}`,
		`{"run":"\ud800\u0041\udc00\ud83d\ude00","pairs":[["\ud800\ud800",1]]}`,
		`{"x":1.,"run":"r"}`,
		`{"x":-,"run":"r"}`,
		`{"run":"r","pairs":[[99999999999999999999,1]]}`,
		`{"RUN":"r"}`,
		`{"run":"r"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := getBatchScratch()
		defer sc.release()
		if err := parseBatchRequest(body, sc, 64); err != nil {
			return
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("parser accepted what encoding/json rejects (%v): %q", err, body)
		}
		var runName string
		if raw, ok := doc["run"]; ok {
			if err := json.Unmarshal(raw, &runName); err != nil {
				t.Fatalf("parser accepted a non-string run %s: %v", raw, err)
			}
		}
		if got := jsonText(sc.run); got != runName {
			t.Fatalf("run = %q, encoding/json says %q", got, runName)
		}
		var pairs [][]json.RawMessage
		if raw, ok := doc["pairs"]; ok {
			if err := json.Unmarshal(raw, &pairs); err != nil {
				t.Fatalf("parser accepted pairs %s: %v", raw, err)
			}
		}
		if len(pairs) != len(sc.tokens) {
			t.Fatalf("%d pairs, encoding/json says %d", len(sc.tokens), len(pairs))
		}
		for i, pair := range pairs {
			if len(pair) != 2 {
				t.Fatalf("pair %d has %d elements", i, len(pair))
			}
			for k, raw := range pair {
				checkBatchToken(t, sc.tokens[i][k], raw)
			}
		}
	})
}

// checkBatchToken compares one parsed pair element with encoding/json's
// reading of the same element.
func checkBatchToken(t *testing.T, tok vertexToken, raw json.RawMessage) {
	t.Helper()
	if bytes.HasPrefix(raw, []byte(`"`)) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("element %s: %v", raw, err)
		}
		if tok.id >= 0 || jsonText(tok.raw) != s {
			t.Fatalf("element %s parsed as %q (id %d), encoding/json says %q", raw, tok.raw, tok.id, s)
		}
		return
	}
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil && !isRangeErr(err) {
		t.Fatalf("parser accepted element %s that is no non-negative integer: %v", raw, err)
	}
	want := math.MaxInt32
	if err == nil && n < math.MaxInt32-9 {
		want = int(n)
	}
	if tok.id != want || string(tok.raw) != string(raw) {
		t.Fatalf("element %s parsed as %q (id %d), want id %d", raw, tok.raw, tok.id, want)
	}
}

func isRangeErr(err error) bool {
	ne, ok := err.(*strconv.NumError)
	return ok && ne.Err == strconv.ErrRange
}

// jsonText renders parsed string bytes the way encoding/json decodes
// them: each byte of invalid UTF-8 becomes U+FFFD.
func jsonText(b []byte) string { return string([]rune(string(b))) }
