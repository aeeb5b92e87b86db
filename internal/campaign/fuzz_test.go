package campaign

import (
	"bytes"
	"errors"
	"sort"
	"testing"
)

// FuzzDecodeTrialRecord hammers the binary trial-stream decoder and the
// NDJSON renderer, the same way FuzzDecodeShardJournal hammers the
// checkpoint decoder. The input is off-the-wire bytes plus cuts, four
// 16-bit split offsets for the renderer. Properties:
//
//   - neither ever panics, whatever bytes arrive;
//   - any stream the decoder accepts re-encodes to the identical bytes
//     (decode∘encode is the identity — the canonical-encoding checks
//     exist for exactly this);
//   - SplitBinaryStream agrees with the full decode on every accepted
//     stream;
//   - every rejection is ErrBinaryCorrupt — truncation included, since a
//     result stream has no tolerated torn tail;
//   - NDJSONWriter is at least as strict: it renders nothing the decoder
//     rejects, written whole or split at the cuts, and split writes
//     render the same bytes as one write. (It may reject more: a
//     CRC-valid record whose value is not JSON cannot render.)
func FuzzDecodeTrialRecord(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte(binaryMagic), uint64(2))
	f.Add([]byte("NOPE"), uint64(0))
	f.Add(append([]byte(binaryMagic), BinaryVersion), uint64(3))
	empty := append(BinaryHeader("c", 1, 0, 0), BinaryTrailer(0, 0, 0)...)
	f.Add(empty, uint64(0x0009_0007_0005_0001))
	one := BinaryHeader("camp", 42, 1, 1)
	one = AppendBinaryRecord(one, Record{
		Point: "p0", Trial: 0, Seed: 99, OK: true,
		Value: []byte(`{"success":true,"attempts":2}`),
	})
	one = append(one, BinaryTrailer(1, 1, 0)...)
	f.Add(one, uint64(0x0030_0021_0011_0006))
	f.Add(one[:len(one)-5], uint64(0x0040_0020)) // truncated tail
	flipped := append([]byte(nil), one...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt trailer CRC
	f.Add(flipped, uint64(0x0033_0001))
	failed := BinaryHeader("camp", 42, 1, 2)
	failed = AppendBinaryRecord(failed, Record{
		Point: "p0", Trial: 0, Seed: 7, Err: "missed", Panicked: true,
	})
	failed = AppendBinaryRecord(failed, Record{
		Point: "p0", Trial: 1, Seed: 8, Err: "deadline", TimedOut: true,
	})
	failed = append(failed, BinaryTrailer(2, 0, 2)...)
	f.Add(failed, uint64(0x0038_0024_0017_0004))

	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		whole, werr := renderSplit(data, nil)
		offs := make([]int, 4)
		for i := range offs {
			offs[i] = int(cuts>>(16*i)&0xffff) % (len(data) + 1)
		}
		sort.Ints(offs)
		split, serr := renderSplit(data, offs)
		if !bytes.Equal(whole, split) || (werr == nil) != (serr == nil) {
			t.Fatalf("split at %v renders %q (%v), whole %q (%v)", offs, split, serr, whole, werr)
		}
		for _, err := range []error{werr, serr} {
			if err != nil && !errors.Is(err, ErrBinaryCorrupt) {
				t.Fatalf("render error is not ErrBinaryCorrupt: %v", err)
			}
		}

		info, recs, tallies, err := DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBinaryCorrupt) {
				t.Fatalf("decode error is not ErrBinaryCorrupt: %v", err)
			}
			if _, _, _, serr := SplitBinaryStream(data); serr == nil {
				t.Fatalf("decode rejected but split accepted")
			}
			if werr == nil {
				t.Fatalf("decode rejected but NDJSONWriter rendered %q", whole)
			}
			return
		}
		if !bytes.Equal(EncodeBinary(info, recs, tallies), data) {
			t.Fatalf("accepted stream does not re-encode to itself")
		}
		sinfo, payload, stallies, serr := SplitBinaryStream(data)
		if serr != nil {
			t.Fatalf("decode accepted but split rejected: %v", serr)
		}
		if sinfo != info || stallies != tallies {
			t.Fatalf("split disagrees with decode: %+v/%+v vs %+v/%+v",
				sinfo, stallies, info, tallies)
		}
		reassembled := BinaryHeader(info.Name, info.SeedBase, info.Points, info.Trials)
		reassembled = append(reassembled, payload...)
		reassembled = append(reassembled, BinaryTrailer(tallies.Trials, tallies.OK, tallies.Failed)...)
		if !bytes.Equal(reassembled, data) {
			t.Fatalf("split parts do not reassemble the stream")
		}
	})
}

// renderSplit writes data through an NDJSONWriter in pieces ending at
// the ascending offsets, then the rest, and closes it; it returns what
// was rendered up to the first error.
func renderSplit(data []byte, offs []int) ([]byte, error) {
	var out bytes.Buffer
	w := NewNDJSONWriter(&out)
	prev := 0
	for _, off := range append(offs, len(data)) {
		if _, err := w.Write(data[prev:off]); err != nil {
			return out.Bytes(), err
		}
		prev = off
	}
	return out.Bytes(), w.Close()
}
