package campaign

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"unsafe"
)

// crcOf seals a frame checksum the way appendFrame does.
func crcOf(typ byte, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, payload)
}

// mixedSpec exercises every record shape the codec must carry: plain
// values, nil values, failures with error strings, and values that only
// marshal through the fmt fallback.
func mixedSpec(points, trials int) *Spec {
	spec := &Spec{Name: "mixed", SeedBase: 99}
	for p := 0; p < points; p++ {
		p := p
		spec.Points = append(spec.Points, Point{
			Label:  "point-" + string(rune('a'+p)),
			Trials: trials,
			Run: func(t Trial) (any, error) {
				switch t.Index % 4 {
				case 0:
					return map[string]any{"success": t.Seed%2 == 0, "attempts": int(t.Seed%7) + 1}, nil
				case 1:
					return nil, errors.New("injection missed the anchor")
				case 2:
					return nil, nil
				default:
					return make(chan int), nil // only marshals via the fmt fallback
				}
			},
		})
	}
	return spec
}

// runSinks runs spec once into a Binary sink and into a second one that
// streams through NDJSONWriter, and returns both streams.
func runSinks(t *testing.T, spec *Spec, workers int) (ndjson, bin []byte) {
	t.Helper()
	var nb, bb bytes.Buffer
	ns, bs := NewBinary(NewNDJSONWriter(&nb)), NewBinary(&bb)
	r := &Runner{Workers: workers, Sinks: []Sink{ns, bs}}
	if _, err := r.Run(spec); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ns.Err() != nil || bs.Err() != nil {
		t.Fatalf("sink errors: ndjson=%v binary=%v", ns.Err(), bs.Err())
	}
	return nb.Bytes(), bb.Bytes()
}

// detSpec is mixedSpec minus the fmt-fallback case: a channel value
// renders as its address, which is deterministic within one run (the
// bijection tests rely on that) but not across runs.
func detSpec(points, trials int) *Spec {
	spec := mixedSpec(points, trials)
	for i := range spec.Points {
		inner := spec.Points[i].Run
		spec.Points[i].Run = func(t Trial) (any, error) {
			if t.Index%4 == 3 {
				return "fallback-free", nil
			}
			return inner(t)
		}
	}
	return spec
}

func TestBinaryDeterministicAcrossWorkerCounts(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		_, bin := runSinks(t, detSpec(3, 8), workers)
		if want == nil {
			want = bin
			continue
		}
		if !bytes.Equal(want, bin) {
			t.Fatalf("workers=%d: binary stream differs from workers=1", workers)
		}
	}
}

// TestBinaryNDJSONBijection: rendering the finished binary stream yields
// exactly the NDJSON a sink streamed frame by frame through NDJSONWriter
// during the run, and transcoding that NDJSON back yields exactly the
// binary stream.
func TestBinaryNDJSONBijection(t *testing.T) {
	ndjson, bin := runSinks(t, mixedSpec(3, 8), 4)

	var gotNDJSON bytes.Buffer
	if err := TranscodeBinaryToNDJSON(&gotNDJSON, bin); err != nil {
		t.Fatalf("binary→ndjson: %v", err)
	}
	if !bytes.Equal(gotNDJSON.Bytes(), ndjson) {
		t.Fatalf("binary→ndjson transcode differs from the live rendering:\ngot  %q\nwant %q",
			gotNDJSON.Bytes(), ndjson)
	}

	var gotBin bytes.Buffer
	if err := TranscodeNDJSONToBinary(&gotBin, ndjson); err != nil {
		t.Fatalf("ndjson→binary: %v", err)
	}
	if !bytes.Equal(gotBin.Bytes(), bin) {
		t.Fatalf("ndjson→binary transcode differs from live Binary sink")
	}
}

func TestBinaryDecodeRoundTrip(t *testing.T) {
	_, bin := runSinks(t, mixedSpec(2, 6), 3)
	info, recs, tallies, err := DecodeBinary(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if info.Name != "mixed" || info.SeedBase != 99 || info.Points != 2 || info.Trials != 12 {
		t.Fatalf("header = %+v", info)
	}
	if len(recs) != 12 || tallies.Trials != 12 {
		t.Fatalf("got %d records, tallies %+v", len(recs), tallies)
	}
	ok, failed := 0, 0
	for _, rec := range recs {
		if rec.OK {
			ok++
		} else {
			failed++
			if rec.Err == "" {
				t.Fatalf("failed record without error string: %+v", rec)
			}
		}
	}
	if ok != tallies.OK || failed != tallies.Failed {
		t.Fatalf("tallies %+v, counted ok=%d failed=%d", tallies, ok, failed)
	}
	if !bytes.Equal(EncodeBinary(info, recs, tallies), bin) {
		t.Fatalf("EncodeBinary(DecodeBinary(stream)) != stream")
	}
}

func TestBinaryScanAliasesAndInterns(t *testing.T) {
	_, bin := runSinks(t, mixedSpec(1, 8), 2)
	var prevPoint string
	shared := 0
	_, _, err := ScanBinary(bin, func(rec Record) error {
		if prevPoint != "" && unsafe.StringData(prevPoint) == unsafe.StringData(rec.Point) {
			shared++
		}
		prevPoint = rec.Point
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if shared == 0 {
		t.Fatalf("repeated point labels were not interned")
	}
}

func TestSplitBinaryStream(t *testing.T) {
	_, bin := runSinks(t, mixedSpec(2, 4), 2)
	info, payload, tallies, err := SplitBinaryStream(bin)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	// Header + payload + trailer reassembles the exact stream.
	whole := BinaryHeader(info.Name, info.SeedBase, info.Points, info.Trials)
	whole = append(whole, payload...)
	whole = append(whole, BinaryTrailer(tallies.Trials, tallies.OK, tallies.Failed)...)
	if !bytes.Equal(whole, bin) {
		t.Fatalf("header+payload+trailer != original stream")
	}
	// An empty campaign splits to an empty payload.
	empty := append(BinaryHeader("e", 1, 0, 0), BinaryTrailer(0, 0, 0)...)
	if _, p, _, err := SplitBinaryStream(empty); err != nil || len(p) != 0 {
		t.Fatalf("empty split: payload=%d err=%v", len(p), err)
	}
}

func TestBinaryTruncationAndCorruptionError(t *testing.T) {
	_, bin := runSinks(t, mixedSpec(1, 4), 1)
	// Every strict prefix must fail to decode and to render — no
	// tolerated torn tail.
	for cut := 0; cut < len(bin); cut++ {
		if _, _, _, err := DecodeBinary(bin[:cut]); !errors.Is(err, ErrBinaryCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrBinaryCorrupt", cut, err)
		}
		if err := TranscodeBinaryToNDJSON(io.Discard, bin[:cut]); !errors.Is(err, ErrBinaryCorrupt) {
			t.Fatalf("truncation at %d: render err = %v, want ErrBinaryCorrupt", cut, err)
		}
	}
	// Any single flipped bit must fail (CRC, magic or structure).
	for i := 0; i < len(bin); i++ {
		mut := append([]byte(nil), bin...)
		mut[i] ^= 0x40
		if _, _, _, err := DecodeBinary(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
		if err := TranscodeBinaryToNDJSON(io.Discard, mut); err == nil {
			t.Fatalf("bit flip at byte %d rendered cleanly", i)
		}
	}
	// Trailing garbage after the end frame must fail.
	junk := append(append([]byte(nil), bin...), 0x00)
	if _, _, _, err := DecodeBinary(junk); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrBinaryCorrupt", err)
	}
	if err := TranscodeBinaryToNDJSON(io.Discard, junk); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("trailing byte: render err = %v, want ErrBinaryCorrupt", err)
	}
}

// writeRecorder keeps every Write it receives as a separate slice.
type writeRecorder struct{ writes [][]byte }

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}

// writeChunked writes data to w in chunk-sized pieces, forcing
// mid-frame splits, and closes it.
func writeChunked(w *NDJSONWriter, data []byte, chunk int) error {
	for len(data) > 0 {
		n := chunk
		if n > len(data) {
			n = len(data)
		}
		if _, err := w.Write(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return w.Close()
}

func TestNDJSONWriterStreams(t *testing.T) {
	ndjson, bin := runSinks(t, mixedSpec(3, 8), 4)
	for _, chunk := range []int{1, 3, 7, 64, 1 << 20} {
		var rec writeRecorder
		if err := writeChunked(NewNDJSONWriter(&rec), bin, chunk); err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !bytes.Equal(bytes.Join(rec.writes, nil), ndjson) {
			t.Fatalf("chunk=%d: streamed rendering differs from the live one", chunk)
		}
		for _, w := range rec.writes {
			if bytes.IndexByte(w, '\n') != len(w)-1 {
				t.Fatalf("chunk=%d: one Write carried %q, want exactly one line", chunk, w)
			}
		}
	}
	// A stream that stops before its end frame is an error, not silent
	// truncation.
	err := writeChunked(NewNDJSONWriter(io.Discard), bin[:len(bin)-3], 8)
	if !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("truncated stream: err = %v, want ErrBinaryCorrupt", err)
	}
}

// TestNDJSONWriterGolden pins the rendered bytes of every record shape
// against literal lines, HTML-escaped labels included.
func TestNDJSONWriterGolden(t *testing.T) {
	stream := EncodeBinary(StreamInfo{Name: "golden", SeedBase: 7, Points: 2, Trials: 4}, []Record{
		{Point: "a", Trial: 0, Seed: 7, OK: true, Value: []byte(`{"Success":true,"Attempts":2}`)},
		{Point: "a", Trial: 1, Seed: 8, OK: true},
		{Point: "b<&>", Trial: 0, Seed: 9, Err: "boom", Panicked: true},
		{Point: "b<&>", Trial: 1, Seed: 10, Err: "deadline", TimedOut: true},
	}, StreamTallies{Trials: 4, OK: 2, Failed: 2})
	want := `{"kind":"campaign","campaign":"golden","seed_base":7,"points":2,"trials":4}
{"kind":"result","point":"a","trial":0,"seed":7,"ok":true,"value":{"Success":true,"Attempts":2}}
{"kind":"result","point":"a","trial":1,"seed":8,"ok":true}
{"kind":"result","point":"b\u003c\u0026\u003e","trial":0,"seed":9,"ok":false,"err":"boom","panicked":true}
{"kind":"result","point":"b\u003c\u0026\u003e","trial":1,"seed":10,"ok":false,"err":"deadline","timed_out":true}
{"kind":"end","trials":4,"ok":2,"failed":2}
`
	var got bytes.Buffer
	if err := TranscodeBinaryToNDJSON(&got, stream); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("rendering:\n%s\nwant:\n%s", got.String(), want)
	}
	// A CRC-valid record whose value is not JSON cannot render.
	bad := EncodeBinary(StreamInfo{Name: "bad", Points: 1, Trials: 1},
		[]Record{{Point: "a", OK: true, Value: []byte("{")}}, StreamTallies{Trials: 1, OK: 1})
	if err := TranscodeBinaryToNDJSON(io.Discard, bad); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("non-JSON value: err = %v, want ErrBinaryCorrupt", err)
	}
}

func TestBinaryRejectsNonCanonicalEncodings(t *testing.T) {
	rec := Record{Point: "p0", Trial: 1, Seed: 7, OK: true}
	stream := BinaryHeader("c", 1, 1, 1)
	stream = AppendBinaryRecord(stream, rec)
	stream = append(stream, BinaryTrailer(1, 1, 0)...)
	if _, _, _, err := DecodeBinary(stream); err != nil {
		t.Fatalf("canonical stream rejected: %v", err)
	}

	// Re-frame the record with a non-minimal length prefix (0x80 0x00
	// padding style): decoder must reject it, otherwise decode∘encode
	// would not be the identity.
	payload := AppendBinaryRecord(nil, rec)
	// payload = full frame; rebuild with a two-byte uvarint length.
	inner := payload[2 : len(payload)-4] // strip type, 1-byte len, CRC
	bad := append([]byte{frameResult, byte(0x80 | len(inner)), 0x00}, inner...)
	crc := crcOf(frameResult, inner)
	bad = append(bad, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	mal := BinaryHeader("c", 1, 1, 1)
	mal = append(mal, bad...)
	mal = append(mal, BinaryTrailer(1, 1, 0)...)
	if _, _, _, err := DecodeBinary(mal); !errors.Is(err, ErrBinaryCorrupt) {
		t.Fatalf("non-canonical uvarint accepted: %v", err)
	}
}

func TestTranscodeNDJSONToBinaryRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not json\n",
		`{"kind":"campaign"}` + "\n", // no trailer
		`{"kind":"end","trials":0,"ok":0,"failed":0}` + "\n" + `{"kind":"campaign"}` + "\n", // reversed
	} {
		if err := TranscodeNDJSONToBinary(io.Discard, []byte(in)); err == nil {
			t.Fatalf("garbage NDJSON %q transcoded cleanly", in)
		}
	}
	// A result line of the wrong kind inside an otherwise valid stream.
	in := strings.Join([]string{
		`{"kind":"campaign","campaign":"c","seed_base":1,"points":1,"trials":1}`,
		`{"kind":"metrics"}`,
		`{"kind":"end","trials":1,"ok":1,"failed":0}`,
	}, "\n") + "\n"
	if err := TranscodeNDJSONToBinary(io.Discard, []byte(in)); err == nil {
		t.Fatalf("foreign line kind transcoded cleanly")
	}
}
