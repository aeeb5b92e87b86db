package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSchedulerAtStep measures the scheduler hot path: schedule one
// event, run it. Steady state must be allocation-free — events come from
// the free list and the 4-ary heap is an inlined slice, so nothing escapes.
func BenchmarkSchedulerAtStep(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now(), "bench", fn)
		s.Step()
	}
}

// BenchmarkSchedulerChurn models the radio workload: a rolling window of
// pending events with out-of-order insertion and periodic cancellation.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	const window = 64
	var refs [window]EventRef
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		s.Cancel(refs[slot])
		refs[slot] = s.At(s.Now().Add(Duration((i*37)%1000)*Microsecond), "churn", fn)
		if i%4 == 0 {
			s.Step()
		}
	}
}

// BenchmarkEmitNilTracer is the disabled-tracing fast path: the lazy field
// builder must never run and nothing may allocate.
func BenchmarkEmitNilTracer(b *testing.B) {
	ch, ln := 7, 22
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(nil, Time(i), "radio", "tx-start", func() []Field {
			return []Field{F("ch", ch), F("len", ln), F("noise", false)}
		})
	}
}

// BenchmarkEmitRecordingTracer is the enabled path: fields are built and
// retained, so allocations are expected — this pins their count.
func BenchmarkEmitRecordingTracer(b *testing.B) {
	tr := NewBoundedRecordingTracer(1024)
	ch, ln := 7, 22
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Emit(tr, Time(i), "radio", "tx-start", func() []Field {
			return []Field{F("ch", ch), F("len", ln), F("noise", false)}
		})
	}
}

// BenchmarkByteArenaCopy pins the arena clone path used for frame PDUs.
func BenchmarkByteArenaCopy(b *testing.B) {
	a := NewByteArena()
	pdu := make([]byte, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			a.Reset()
		}
		_ = a.Copy(pdu)
	}
}

// BenchmarkRNGReseedDraws is a forked trial's stream: reseed, then draw a
// few times. The register fills as it is drawn, so the cost grows with the
// draws. math-rand is the eagerly seeded reference: a bare rand.Rand over
// math/rand's own source, drawn without RNG's wrapper.
func BenchmarkRNGReseedDraws(b *testing.B) {
	for _, n := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("draws=%d", n), func(b *testing.B) {
			g := NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Reseed(uint64(i))
				for j := 0; j < n; j++ {
					g.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("math-rand/draws=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for j := 0; j < n; j++ {
					r.Uint64()
				}
			}
		})
	}
}
