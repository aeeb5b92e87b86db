package link

import (
	"fmt"
	"testing"

	"injectable/internal/sim"
)

// TestRearmedWindowCloseCancelsStaleClose: with its widening stretched
// 600-fold, the slave listens 21 ms either side of each predicted anchor
// on a 30 ms interval. A window's close then falls after the next window
// opens, so it is still queued, stale, when that window arms its own.
// Arming must cancel it: left queued it would read the new window's epoch
// and close that window before the master's frame arrives.
func TestRearmedWindowCloseCancelsStaleClose(t *testing.T) {
	rg := newRig(t, ConnParams{Interval: 24})
	rg.perStack.WideningScale = 600
	rg.connect(t)
	c := rg.slave
	missed := 0
	c.OnEvent = func(e EventInfo) {
		if e.Missed {
			missed++
		}
	}
	stale := c.winClose
	for c.winClose == stale && rg.sched.Step() {
	}
	if !stale.Cancelled() || stale.At() <= rg.sched.Now() {
		t.Fatalf("close at %v (now %v): cancelled=%t, want cancelled while still queued",
			stale.At(), rg.sched.Now(), stale.Cancelled())
	}
	rg.sched.RunFor(sim.Second)
	if missed != 0 || c.Closed() {
		t.Fatalf("%d events missed, closed=%t: a stale close acted", missed, c.Closed())
	}
}

// TestConnForkMidWindowReplaysIdentically snapshots a connection while the
// slave's receive window is open, with its close timer armed, and checks
// that the restored world replays the same events: the window width, the
// close epoch and the pending response live in fields the snapshot sees.
func TestConnForkMidWindowReplaysIdentically(t *testing.T) {
	rg := newRig(t, ConnParams{Interval: 24})
	rg.connect(t)
	for !(rg.slave.winClose.Pending() && rg.perStack.Radio.Listening()) {
		rg.sched.Step()
	}
	var log []string
	hook := func(side string) func(EventInfo) {
		return func(e EventInfo) { log = append(log, fmt.Sprint(side, e, rg.sched.Now())) }
	}
	rg.master.OnEvent, rg.slave.OnEvent = hook("m"), hook("s")
	capture := sim.CaptureRoots(rg.sched, rg.med, rg.perStack, rg.cenStack,
		rg.advertiser, rg.initiator, rg.master, rg.slave)
	run := func() []string {
		log = log[:0]
		rg.sched.RunFor(500 * sim.Millisecond)
		sn, nesn := rg.master.SequenceState()
		return append(log, fmt.Sprint(rg.sched.Processed(), sn, nesn))
	}
	first := run()
	capture.Restore()
	second := run()
	if len(first) < 20 {
		t.Fatalf("only %d events logged", len(first))
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("replay diverged:\nfirst  %v\nsecond %v", first, second)
	}
}
