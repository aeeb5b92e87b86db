package medium

import (
	"testing"

	"injectable/internal/phy"
	"injectable/internal/sim"
)

// lockRace arms two lock attempts at one receiver for the same instant:
// far and near start transmitting together, far first unless nearFirst,
// so that one's attempt is armed (and queued) first. near is close enough
// that its preamble survives far's; far's does not survive near's.
func lockRace(t *testing.T, tr sim.Tracer, nearFirst bool) (tb *testbed, rx, far, near *Radio) {
	t.Helper()
	tb = newTestbed(t, Config{Tracer: tr})
	rx = tb.radio("rx", 0)
	far = tb.radio("far", 30)
	near = tb.radio("near", 1)
	for _, r := range []*Radio{rx, far, near} {
		r.SetChannel(5)
	}
	rx.SetAccessAddress(9)
	rx.StartListening()
	first, second := far, near
	if nearFirst {
		first, second = near, far
	}
	first.Transmit(dataFrame(9, 10))
	second.Transmit(dataFrame(9, 10))
	return tb, rx, far, near
}

// TestLockAttemptsRunFIFOAndLockCancelsTheRest: two attempts armed for
// the same instant run in arming order; the one that locks cancels every
// attempt still pending, and Acquiring follows the pending list.
func TestLockAttemptsRunFIFOAndLockCancelsTheRest(t *testing.T) {
	tr := sim.NewRecordingTracer("lock", "lock-fail")
	tb, rx, far, near := lockRace(t, tr, false)
	if len(rx.pending) != 2 || rx.pending[0].t.radio != far || rx.pending[1].t.radio != near {
		t.Fatalf("pending = %+v, want far's attempt then near's", rx.pending)
	}
	if !rx.Acquiring() {
		t.Fatal("Acquiring false with two attempts pending")
	}
	tb.sched.Run()
	var kinds []string
	for _, e := range tr.Events {
		from, _ := e.Field("from")
		kinds = append(kinds, e.Kind+":"+from.(string))
	}
	if len(kinds) != 2 || kinds[0] != "lock-fail:far" || kinds[1] != "lock:near" {
		t.Fatalf("lock sequence %v, want [lock-fail:far lock:near]", kinds)
	}
	if rx.Acquiring() || len(rx.pending) != 0 {
		t.Fatalf("attempts left pending after the run: %+v", rx.pending)
	}

	// Reversed arming order: near's attempt runs first, locks, and
	// cancels far's, which then never runs.
	tr = sim.NewRecordingTracer("lock", "lock-fail")
	tb, rx, _, _ = lockRace(t, tr, true)
	farAttempt := rx.pending[1].ev
	tb.sched.RunUntil(sim.Time(phy.LE1M.PreambleAATime()))
	if len(tr.Events) != 1 || tr.Events[0].Kind != "lock" {
		t.Fatalf("events %v, want a single lock", tr.Events)
	}
	if farAttempt.Pending() || rx.Acquiring() {
		t.Fatal("the lock left far's attempt pending")
	}
}

// TestAbortCancelsEveryPendingLockAttempt: retuning (abortReceive) and
// StopListening cancel all pending attempts, not just one.
func TestAbortCancelsEveryPendingLockAttempt(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(r *Radio)
	}{
		{"retune", func(r *Radio) { r.SetChannel(6) }},
		{"stop-listening", func(r *Radio) { r.StopListening() }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			tb, rx, _, _ := lockRace(t, nil, false)
			evs := []sim.EventRef{rx.pending[0].ev, rx.pending[1].ev}
			stop.fn(rx)
			if rx.Acquiring() || len(rx.pending) != 0 {
				t.Fatalf("pending after %s: %+v", stop.name, rx.pending)
			}
			for i, ev := range evs {
				if ev.Pending() {
					t.Fatalf("attempt %d still armed after %s", i, stop.name)
				}
			}
			n := 0
			rx.OnFrame = func(Received) { n++ }
			tb.sched.Run()
			if n != 0 {
				t.Fatalf("%d frames delivered after %s", n, stop.name)
			}
		})
	}
}

// TestTransmissionNotReusedBeforeItsRxComplete: a transmission that ends
// exactly when another begins is pruned from the active set, but its
// rx-complete is still queued at that instant, so it must not be recycled
// for the new transmission. Once its end has passed, it is.
func TestTransmissionNotReusedBeforeItsRxComplete(t *testing.T) {
	tb := newTestbed(t, Config{})
	rx := tb.radio("rx", 0)
	a := tb.radio("a", 2)
	b := tb.radio("b", 3)
	for _, r := range []*Radio{rx, a, b} {
		r.SetChannel(5)
	}
	rx.SetAccessAddress(9)
	rx.StartListening()
	var got []Received
	rx.OnFrame = func(r Received) { got = append(got, r) }

	first := dataFrame(9, 10)
	first.PDU[0] = 0xA1
	end := sim.Time(phy.LE1M.AirTime(10))
	var ta, tb2 *transmission
	// Armed before a's frame exists, so it runs at end ahead of the
	// rx-complete that the lock arms later for the same instant.
	tb.sched.At(end, "b-tx", func() {
		b.Transmit(dataFrame(9, 4))
		tb2 = tb.med.active[len(tb.med.active)-1]
	})
	a.Transmit(first)
	ta = tb.med.active[0]
	tb.sched.Run()

	if tb2 == ta {
		t.Fatal("a's transmission was recycled while its rx-complete was queued")
	}
	if len(got) != 1 || got[0].Frame.PDU[0] != 0xA1 || got[0].StartAt != 0 || got[0].EndAt != end {
		t.Fatalf("rx got %+v, want a's frame over [0, %v]", got, end)
	}

	// The next prune comes after b's end: b's transmission is recycled,
	// and a's, dropped at a prune on its end instant, never is.
	tb.sched.After(sim.Millisecond, "a-tx", func() { a.Transmit(dataFrame(9, 4)) })
	tb.sched.Run()
	if len(tb.med.freeTx) != 1 || tb.med.freeTx[0] != tb2 {
		t.Fatalf("free list %v, want only b's ended transmission", tb.med.freeTx)
	}
}

// TestSteadyTransmitReceiveAllocatesNothing: once the free lists are warm,
// a transmit–lock–deliver round trip allocates nothing.
func TestSteadyTransmitReceiveAllocatesNothing(t *testing.T) {
	tb := newTestbed(t, Config{})
	tx, rx := tb.radio("tx", 0), tb.radio("rx", 2)
	tx.SetChannel(5)
	rx.SetChannel(5)
	rx.SetAccessAddress(9)
	rx.OnFrame = func(Received) { rx.StartListening() }
	rx.StartListening()
	f := dataFrame(9, 22)
	round := func() {
		tb.sched.RunFor(sim.Millisecond)
		tx.Transmit(f)
		tb.sched.RunFor(sim.Millisecond)
	}
	for i := 0; i < 4; i++ {
		round() // warm the event and transmission free lists
	}
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady transmit+receive allocates %v per round, want 0", allocs)
	}
}
