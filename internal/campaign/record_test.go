package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestRecordNDJSONLineRoundTrip(t *testing.T) {
	recs := []Record{
		{Point: "p0", Trial: 0, Seed: 42, OK: true, Value: json.RawMessage(`{"success":true,"attempts":3}`)},
		{Point: "p1", Trial: 7, Seed: 1 << 63, OK: false, Err: "anchor missed"},
		{Point: "p1", Trial: 8, Seed: 9, OK: false, Err: "boom", Panicked: true},
		{Point: "sweep/ε=0.5", Trial: 2, Seed: 3, OK: false, Err: "deadline", TimedOut: true},
		{Point: "p2", Trial: 1, Seed: 5, OK: true}, // nil value
	}
	for _, rec := range recs {
		line, err := rec.AppendNDJSONLine(nil)
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		back, err := ParseNDJSONResult(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		line2, err := back.AppendNDJSONLine(nil)
		if err != nil {
			t.Fatalf("re-render: %v", err)
		}
		if !bytes.Equal(line, line2) {
			t.Fatalf("line round trip not lossless:\n%q\n%q", line, line2)
		}
	}
}

func TestParseNDJSONResultRejects(t *testing.T) {
	for _, in := range []string{
		"",
		"{",
		`{"kind":"campaign"}`,
		`{"kind":"metrics"}`,
	} {
		if _, err := ParseNDJSONResult([]byte(in)); err == nil {
			t.Fatalf("%q parsed cleanly", in)
		}
	}
}

// TestSharedValueFallback pins the deduped fallback: the NDJSON stream
// and the JSONL sink render an unmarshalable trial value through the
// same fmt degradation, so a fix in one cannot silently miss the other.
func TestSharedValueFallback(t *testing.T) {
	spec := &Spec{Name: "fb", SeedBase: 7, Points: []Point{{
		Label: "p0", Trials: 1,
		Run: func(Trial) (any, error) { return func() {}, nil },
	}}}
	var nb, jb bytes.Buffer
	r := &Runner{Workers: 1, Sinks: []Sink{NewBinary(NewNDJSONWriter(&nb)), NewJSONL(&jb)}}
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	type valued struct {
		Kind  string          `json:"kind"`
		Value json.RawMessage `json:"value"`
	}
	extract := func(stream []byte) json.RawMessage {
		for _, line := range bytes.Split(stream, []byte("\n")) {
			var v valued
			if json.Unmarshal(line, &v) == nil && v.Kind == "result" {
				return v.Value
			}
		}
		t.Fatalf("no result line in %q", stream)
		return nil
	}
	nv, jv := extract(nb.Bytes()), extract(jb.Bytes())
	if !bytes.Equal(nv, jv) {
		t.Fatalf("sinks disagree on fallback value: NDJSON %q, JSONL %q", nv, jv)
	}
	var s string
	if err := json.Unmarshal(nv, &s); err != nil {
		t.Fatalf("fallback value is not a degraded string: %q (%v)", nv, err)
	}
}

func TestNewRecordClassifiesFailures(t *testing.T) {
	rec := NewRecord(Result{Point: "p", Index: 1, Seed: 2, Err: errors.New("x"), Panicked: true})
	if rec.OK || rec.Err != "x" || !rec.Panicked {
		t.Fatalf("rec = %+v", rec)
	}
	rec = NewRecord(Result{Point: "p", Index: 1, Seed: 2, Value: 17})
	if !rec.OK || string(rec.Value) != "17" {
		t.Fatalf("rec = %+v", rec)
	}
}
