package fabric

import (
	"bytes"
	"io"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/serve"
)

// BenchmarkShardPlanMerge measures the coordinator's deterministic core
// with the network removed: planning a sweep into shards, and merging
// pre-rendered binary shard streams (CRC frame validation, ordered
// collation, frame re-emission under one binary header and trailer)
// back into one campaign stream, as Run does. This is the per-campaign
// overhead the fabric adds on top of the workers' own compute, so its
// allocation count is gated strictly.
func BenchmarkShardPlanMerge(b *testing.B) {
	reg := serve.DefaultRegistry()
	spec := serve.JobSpec{Experiment: "exp1", Trials: 2, SeedBase: 1000}

	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PlanShards(reg, spec, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("merge", func(b *testing.B) {
		p, err := PlanShards(reg, spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Render each shard's stream once, the way a worker daemon would.
		streams := make([][]byte, len(p.Shards))
		for i, s := range p.Shards {
			cspec, err := reg.Build(s.Spec)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
			if _, err := runner.Run(cspec); err != nil {
				b.Fatal(err)
			}
			streams[i] = buf.Bytes()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := io.Discard
			if _, err := w.Write(campaign.BinaryHeader(p.Name, p.SeedBase, p.Points, p.Trials)); err != nil {
				b.Fatal(err)
			}
			coll := campaign.NewCollator[[]byte](0)
			trials, ok, failed := 0, 0, 0
			// Reverse order so the collator's pending map does real work.
			for idx := len(streams) - 1; idx >= 0; idx-- {
				payload, o, f, err := splitBinaryShard(streams[idx], p.Shards[idx].Trials)
				if err != nil {
					b.Fatal(err)
				}
				ok += o
				failed += f
				trials += o + f
				for _, out := range coll.Add(idx, payload) {
					if _, err := w.Write(out); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, err := w.Write(campaign.BinaryTrailer(trials, ok, failed)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
