package campaign

import (
	"encoding/json"
	"fmt"
)

// Record is the deterministic, format-independent view of one trial
// result: exactly the fields the NDJSON "result" line carries, nothing
// the wall clock touches. It is the pivot type of the result codecs —
// the binary codec and both transcoders go through Record, which is
// what makes binary ↔ NDJSON a lossless bijection.
type Record struct {
	// Point is the owning point's label.
	Point string
	// Trial is the trial's index within its point.
	Trial int
	// Seed is the trial's derived seed.
	Seed uint64
	// OK reports whether the trial succeeded (Err == nil on the Result).
	OK bool
	// Err is the failure message ("" on success).
	Err string
	// Panicked and TimedOut classify the failure.
	Panicked bool
	TimedOut bool
	// Value is the trial value as compact JSON (nil when the trial
	// returned nil or failed).
	Value json.RawMessage
}

// NewRecord projects a runner Result onto its deterministic record.
func NewRecord(r Result) Record {
	rec := Record{
		Point:    r.Point,
		Trial:    r.Index,
		Seed:     r.Seed,
		OK:       r.Err == nil,
		Panicked: r.Panicked,
		TimedOut: r.TimedOut,
		Value:    marshalValue(r.Value),
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

// marshalValue renders a trial value as compact JSON. A value that does
// not marshal (a channel, a cycle) degrades to its fmt representation
// instead of poisoning the stream; this is the one shared fallback both
// the Binary and JSONL sinks use, so a change here cannot silently miss
// one of them.
func marshalValue(v any) json.RawMessage {
	if v == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		raw, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return raw
}

// resultLine is the NDJSON "result" line. NDJSONWriter and the parser
// share this one struct: its field order and omitempty tags define the
// canonical line bytes.
type resultLine struct {
	Kind     string          `json:"kind"`
	Point    string          `json:"point"`
	Trial    int             `json:"trial"`
	Seed     uint64          `json:"seed"`
	OK       bool            `json:"ok"`
	Err      string          `json:"err,omitempty"`
	Panicked bool            `json:"panicked,omitempty"`
	TimedOut bool            `json:"timed_out,omitempty"`
	Value    json.RawMessage `json:"value,omitempty"`
}

// ndjsonHeader is the NDJSON stream's first line and ndjsonEnd its
// last; with resultLine they define the canonical line bytes, for
// NDJSONWriter that renders them and the parser that reads them back.
type ndjsonHeader struct {
	Kind     string `json:"kind"`
	Campaign string `json:"campaign"`
	SeedBase uint64 `json:"seed_base"`
	Points   int    `json:"points"`
	Trials   int    `json:"trials"`
}

type ndjsonEnd struct {
	Kind   string `json:"kind"`
	Trials int    `json:"trials"`
	Ok     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// appendLine appends v's JSON encoding and a newline: the bytes
// json.Encoder.Encode writes for v.
func appendLine(dst []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, raw...), '\n'), nil
}

// line renders the record as its NDJSON line struct.
func (rec Record) line() resultLine {
	return resultLine{
		Kind:     "result",
		Point:    rec.Point,
		Trial:    rec.Trial,
		Seed:     rec.Seed,
		OK:       rec.OK,
		Err:      rec.Err,
		Panicked: rec.Panicked,
		TimedOut: rec.TimedOut,
		Value:    rec.Value,
	}
}

// AppendNDJSONLine appends the record's NDJSON line (newline included)
// exactly as NDJSONWriter writes it.
func (rec Record) AppendNDJSONLine(dst []byte) ([]byte, error) {
	dst, err := appendLine(dst, rec.line())
	if err != nil {
		return dst, fmt.Errorf("campaign: encoding result line: %w", err)
	}
	return dst, nil
}

// ParseNDJSONResult parses one NDJSON "result" line (without requiring
// the trailing newline) back into a Record. For a line produced by
// NDJSONWriter the parse is lossless: re-rendering the record yields
// the identical bytes.
func ParseNDJSONResult(line []byte) (Record, error) {
	var l resultLine
	if err := json.Unmarshal(line, &l); err != nil {
		return Record{}, fmt.Errorf("campaign: parsing result line: %w", err)
	}
	if l.Kind != "result" {
		return Record{}, fmt.Errorf("campaign: line kind %q, want \"result\"", l.Kind)
	}
	return Record{
		Point:    l.Point,
		Trial:    l.Trial,
		Seed:     l.Seed,
		OK:       l.OK,
		Err:      l.Err,
		Panicked: l.Panicked,
		TimedOut: l.TimedOut,
		Value:    l.Value,
	}, nil
}
