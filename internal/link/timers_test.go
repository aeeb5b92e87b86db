package link

import (
	"testing"

	"injectable/internal/sim"
)

// timerListBound caps a timer list's length. An advertiser or connection
// has at most a few timers pending at once; the list may also hold a few
// refs that ran or were cancelled since it was last compacted.
const timerListBound = 4

// refSet gathers every timer ref a list has held, sampled after each
// scheduler step: a ref joins its list inside one event and stays there
// for as long as it can still fire.
type refSet map[sim.EventRef]bool

func (s refSet) add(refs []sim.EventRef) {
	for _, r := range refs {
		s[r] = true
	}
}

// assertNonePending fails if any gathered timer can still fire.
func (s refSet) assertNonePending(t *testing.T, owner string) {
	t.Helper()
	for r := range s {
		if r.Pending() {
			t.Fatalf("%s timer %q at %v still pending after it stopped", owner, r.Label(), r.At())
		}
	}
}

// stepFor runs the scheduler one event at a time for d, calling after
// each event.
func stepFor(sched *sim.Scheduler, d sim.Duration, after func()) {
	end := sched.Now().Add(d)
	for sched.Now() < end && sched.Step() {
		after()
	}
}

func TestAdvertiserPendingStaysBounded(t *testing.T) {
	rg := newRig(t, ConnParams{})
	adv := rg.advertiser
	adv.Start()
	refs, peak := refSet{}, 0
	stepFor(rg.sched, 90*sim.Second, func() {
		peak = max(peak, len(adv.pending))
		refs.add(adv.pending)
	})
	if peak > timerListBound {
		t.Fatalf("advertiser pending list reached %d refs in 90 s, want ≤ %d", peak, timerListBound)
	}
	if len(refs) < 1000 {
		t.Fatalf("only %d advertiser timers in 90 s: the advertiser did not run", len(refs))
	}
	adv.Stop()
	refs.assertNonePending(t, "advertiser")
}

func TestConnTimersStayBounded(t *testing.T) {
	rg := newRig(t, ConnParams{Interval: 24}) // 30 ms
	rg.connect(t)
	mRefs, sRefs := refSet{}, refSet{}
	mPeak, sPeak := 0, 0
	stepFor(rg.sched, 90*sim.Second, func() {
		mPeak = max(mPeak, len(rg.master.timers))
		sPeak = max(sPeak, len(rg.slave.timers))
		mRefs.add(rg.master.timers)
		sRefs.add(rg.slave.timers)
	})
	if rg.master.Closed() || rg.slave.Closed() {
		t.Fatal("connection dropped during the 90 s run")
	}
	if mPeak > timerListBound || sPeak > timerListBound {
		t.Fatalf("timer lists reached %d (master) and %d (slave) refs in 90 s, want ≤ %d",
			mPeak, sPeak, timerListBound)
	}
	if len(mRefs) < 2000 || len(sRefs) < 2000 {
		t.Fatalf("only %d master and %d slave timers in 90 s at a 30 ms interval", len(mRefs), len(sRefs))
	}

	// Close each side in turn, mid-run: none of its timers may fire after.
	rg.master.close(reasonLocalTerminated)
	mRefs.assertNonePending(t, "master")
	stepFor(rg.sched, 7*sim.Millisecond, func() { sRefs.add(rg.slave.timers) })
	rg.slave.close(reasonLocalTerminated)
	sRefs.assertNonePending(t, "slave")
}
