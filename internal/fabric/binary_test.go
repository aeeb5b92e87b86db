package fabric

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

// serialBinaryStream is serialStream in the binary trial-record format.
func serialBinaryStream(t *testing.T) []byte {
	t.Helper()
	cspec, err := serve.DefaultRegistry().Build(refSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
	if _, err := runner.Run(cspec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFabricBinaryOutput runs the fleet with binary merged output: the
// bytes must be identical to a single-process binary run, and transcode
// to exactly the NDJSON the default output would have produced.
func TestFabricBinaryOutput(t *testing.T) {
	wantBin := serialBinaryStream(t)
	wantND := serialStream(t)
	var merged bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Workers: startWorkers(t, 2),
		Hub:     obs.NewHub(),
		Format:  serve.FormatBinary,
	}, plan(t, 0), &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), wantBin) {
		t.Fatal("binary merged stream differs from a single-process binary run")
	}
	if rep.Bytes != int64(merged.Len()) {
		t.Fatalf("report bytes %d, merged %d", rep.Bytes, merged.Len())
	}
	var nd bytes.Buffer
	if err := campaign.TranscodeBinaryToNDJSON(&nd, merged.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd.Bytes(), wantND) {
		t.Fatal("transcoded binary merge differs from the NDJSON reference")
	}
}

// TestFabricRejectsUnknownFormat pins the config validation.
func TestFabricRejectsUnknownFormat(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Workers: []string{"http://127.0.0.1:1"},
		Format:  "csv",
	}, plan(t, 0), &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestSplitBinaryShard pins the frame validation binary dispatch rests
// on: tallies extracted without decoding records, trial-count mismatch
// and torn streams rejected.
func TestSplitBinaryShard(t *testing.T) {
	recs := []campaign.Record{
		{Point: "a", Trial: 0, Seed: 1, OK: true},
		{Point: "a", Trial: 1, Seed: 2, Err: "boom"},
	}
	stream := campaign.EncodeBinary(
		campaign.StreamInfo{Name: "x", SeedBase: 1, Points: 1, Trials: 2},
		recs, campaign.StreamTallies{Trials: 2, OK: 1, Failed: 1})

	payload, ok, failed, err := splitBinaryShard(stream, 2)
	if err != nil || ok != 1 || failed != 1 {
		t.Fatalf("split = ok %d, failed %d, err %v", ok, failed, err)
	}
	wantPayload := campaign.AppendBinaryRecord(nil, recs[0])
	wantPayload = campaign.AppendBinaryRecord(wantPayload, recs[1])
	if !bytes.Equal(payload, wantPayload) {
		t.Fatal("payload is not the raw result-frame region")
	}
	if _, _, _, err := splitBinaryShard(stream, 3); err == nil {
		t.Fatal("trial-count mismatch accepted")
	}
	if _, _, _, err := splitBinaryShard(stream[:len(stream)-2], 2); err == nil {
		t.Fatal("torn stream accepted")
	}
	if _, _, _, err := splitBinaryShard([]byte(`{"kind":"campaign"}`+"\n"), 0); err == nil {
		t.Fatal("NDJSON stream accepted as binary")
	}
}

// TestFabricResumeRejectsNDJSONJournal: a journal written before the
// binary codec holds NDJSON result lines as shard bodies. Resuming from
// one fails with ErrBinaryCorrupt in both output formats; the body is
// neither upgraded nor copied into the merged stream.
func TestFabricResumeRejectsNDJSONJournal(t *testing.T) {
	p := plan(t, 0)
	s := p.Shards[len(p.Shards)/2]
	body, err := campaign.Record{Point: "legacy", Trial: 0, Seed: 1, OK: true}.AppendNDJSONLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	resume := []ShardRecord{{Key: s.Key, Index: s.Index, OK: 1, Body: body}}
	for _, format := range []string{serve.FormatNDJSON, serve.FormatBinary} {
		var merged bytes.Buffer
		rep, err := Run(context.Background(), Config{
			Workers: []string{"http://127.0.0.1:1"}, // unreachable: resume must fail before dispatch
			Resume:  resume,
			Format:  format,
		}, p, &merged)
		if !errors.Is(err, campaign.ErrBinaryCorrupt) {
			t.Fatalf("%s: resume from an NDJSON journal: err = %v, want ErrBinaryCorrupt", format, err)
		}
		if rep.Dispatched != 0 {
			t.Fatalf("%s: report %+v, want no dispatch", format, rep)
		}
		if bytes.Contains(merged.Bytes(), body) {
			t.Fatalf("%s: the NDJSON body reached the merged stream", format)
		}
	}
}
