package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"injectable/internal/obs"
)

// benchServer spins up an in-process daemon over the fast stub registry
// so the benchmarks measure serving overhead (admission, dedup, slab
// replay), not simulation cost. The hub is real: metric and span costs
// on the hot path are part of what the cache-hit gate protects.
func benchServer(b *testing.B) *Server {
	b.Helper()
	s := NewServer(Config{
		Registry:     stubRegistry(nil, nil, nil),
		Hub:          obs.NewHub(),
		QueueCap:     1024,
		JobWorkers:   2,
		TrialWorkers: 2,
		CacheEntries: 4096,
	})
	b.Cleanup(s.Close)
	return s
}

// submitWait admits a spec and blocks until the job is terminal.
func submitWait(b *testing.B, s *Server, spec JobSpec) *job {
	b.Helper()
	j, _, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	<-j.done
	return j
}

// BenchmarkServeJob measures one synchronous job round trip through the
// server core. cache-hit is the serving hot path the binary slab cache
// exists for — spec validation, canonical key, LRU lookup, and a
// zero-copy handle on the completed stream, with no fresh job, no
// buffer copy and no transcode — and is CI-gated at 512 B / 9 allocs
// per op. cache-miss executes a fresh 8-trial campaign per iteration
// (distinct seed_base, so dedup never short-circuits it).
func BenchmarkServeJob(b *testing.B) {
	b.Run("cache-hit", func(b *testing.B) {
		s := benchServer(b)
		spec := JobSpec{Experiment: "stub", Trials: 8, SeedBase: 4242}
		submitWait(b, s, spec) // warm the cache
		// Warm the span log past its bound so its one-time growth to the
		// retention limit is not billed to the measured window (steady
		// state evicts in place and never grows).
		for i := 0; i < obs.DefaultSpanLimit+64; i++ {
			if _, _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		var bytesServed int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, disp, err := s.Submit(spec)
			if err != nil || disp != "hit" {
				b.Fatalf("disposition %q, err %v", disp, err)
			}
			slab, ok := j.buf.sealedBytes()
			if !ok {
				b.Fatal("hit job not sealed")
			}
			bytesServed += int64(len(slab))
		}
		b.SetBytes(bytesServed / int64(b.N))
	})
	b.Run("cache-miss", func(b *testing.B) {
		s := benchServer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submitWait(b, s, JobSpec{Experiment: "stub", Trials: 8, SeedBase: uint64(100000 + i)})
		}
	})
}

// BenchmarkServeJobHTTP is the same round trip through the full HTTP
// path (request parse, routing, response streaming) in both formats, so
// the transport overhead stays visible next to the core numbers.
func BenchmarkServeJobHTTP(b *testing.B) {
	run := func(b *testing.B, base, body, query string) {
		resp, err := http.Post(base+"/v1/run"+query, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
	for _, format := range []string{FormatBinary, FormatNDJSON} {
		b.Run("cache-hit-"+format, func(b *testing.B) {
			s := benchServer(b)
			ts := httptest.NewServer(s.Handler())
			b.Cleanup(ts.Close)
			body := `{"experiment":"stub","trials":8,"seed_base":4242}`
			query := "?format=" + format
			run(b, ts.URL, body, query) // warm the cache and the transcode memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b, ts.URL, body, query)
			}
		})
	}
	b.Run("cache-miss", func(b *testing.B) {
		s := benchServer(b)
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, ts.URL,
				fmt.Sprintf(`{"experiment":"stub","trials":8,"seed_base":%d}`, 200000+i), "")
		}
	})
}

// shardScenario is a fleet-style DSL campaign: the attacker at six
// distances from the victim, hop interval 36, up to 40 attempts and a 6 s
// budget per trial.
const shardScenario = `{"version":1,"name":"fleet-shard","conn":{"interval":36},
"attacker":{"max_attempts":40},"run":{"sim_seconds":6},
"sweep":[{"field":"attacker.pos.x","values":[-0.5,-0.75,-1,-1.25,-1.5,-2]}]}`

// BenchmarkServeScenarioShard is one fleet-style shard job through the
// server core on DefaultRegistry: an inline scenario with a one-point
// range, warmup "shared" and the paper's 25 trials per value, so one
// admission, one compile, one warm world forked 25 times and one binary
// stream per op. Every iteration is a miss (distinct seed base). Its
// allocation count — the job path's fixed cost plus 25 forks — is gated
// by BENCH_8.json.
func BenchmarkServeScenarioShard(b *testing.B) {
	s := NewServer(Config{Hub: obs.NewHub(), QueueCap: 1024, JobWorkers: 1, TrialWorkers: 1})
	b.Cleanup(s.Close)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := submitWait(b, s, JobSpec{
			Scenario: json.RawMessage(shardScenario),
			Trials:   25, SeedBase: uint64(1_000_000 + i*10_000),
			PointStart: 2, PointCount: 1, Warmup: "shared",
		})
		if st := j.snapshot(); st.Status != StatusDone {
			b.Fatalf("shard %d: %s %s", i, st.Status, st.Error)
		}
	}
}
