package injectable

import (
	"fmt"
	"testing"

	"injectable/internal/link"
	"injectable/internal/sim"
)

// TestSteadyConnectionEventAllocatesNothing pins the hot path: once a
// connection is up and idle, a connection event — the master's anchor,
// the slave's window and response, the medium's locks and deliveries —
// allocates nothing, and neither does a sniffer following it.
func TestSteadyConnectionEventAllocatesNothing(t *testing.T) {
	for _, follow := range []bool{false, true} {
		name := "link"
		if follow {
			name = "link+sniffer"
		}
		t.Run(name, func(t *testing.T) {
			rig := newAttackRig(t, 7, 24)
			rig.connectAndSync(t)
			rig.phone.StopActivity()
			if !follow {
				rig.sniffer.Stop()
			}
			rig.w.RunFor(sim.Second) // drain in-flight traffic, warm the free lists
			interval := rig.sniffer.State().IntervalDuration()
			events := rig.phone.Central.Conn().EventCounter()
			allocs := testing.AllocsPerRun(50, func() { rig.w.RunFor(interval) })
			if n := rig.phone.Central.Conn().EventCounter() - events; n < 50 {
				t.Fatalf("only %d connection events ran", n)
			}
			if follow && !rig.sniffer.Following() {
				t.Fatal("the sniffer lost the connection")
			}
			if allocs != 0 {
				t.Fatalf("one idle connection event allocates %v, want 0", allocs)
			}
		})
	}
}

// TestSnifferFrameCancelsStaleWindowClose: the master's frame lands
// mid-window, so the window's close is still queued when the sniffer arms
// its slave-response wait. Arming cancels it; left queued it would read
// the wait's epoch and end the event before the slave answers.
func TestSnifferFrameCancelsStaleWindowClose(t *testing.T) {
	rig := newAttackRig(t, 7, 24)
	rig.connectAndSync(t)
	s := rig.sniffer
	// Find a window whose close is followed by the slave wait: the master
	// frame arrived while the close was armed.
	var closeRef sim.EventRef
	for i := 0; s.timer.Label() != s.slaveWaitLabel; i++ {
		if i > 10000 {
			t.Fatal("no master frame arrived inside a window")
		}
		closeRef = s.timer
		for s.timer == closeRef {
			rig.w.Sched.Step()
		}
	}
	if closeRef.Label() != s.winCloseLabel {
		t.Fatalf("the slave wait replaced %q, want the window close", closeRef.Label())
	}
	if !closeRef.Cancelled() || closeRef.At() <= rig.w.Now() {
		t.Fatalf("window close at %v (now %v): cancelled=%t, want cancelled while still queued",
			closeRef.At(), rig.w.Now(), closeRef.Cancelled())
	}
	slaves := 0
	s.OnPacket = func(p SniffedPacket) {
		if p.Role == link.RoleSlave {
			slaves++
		}
	}
	rig.w.RunFor(sim.Second)
	if slaves < 30 || !s.Following() {
		t.Fatalf("%d slave responses seen in 1 s, following=%t", slaves, s.Following())
	}
}

// TestForkMidWindowReplaysIdentically snapshots a world while both the
// victim's and the sniffer's receive windows are open, and checks the
// restored world replays the same packets: every piece of per-event state
// (window width, close epochs, armed timers, the response frame) lives in
// fields the snapshot reaches.
func TestForkMidWindowReplaysIdentically(t *testing.T) {
	rig := newAttackRig(t, 11, 36)
	rig.connectAndSync(t)
	rig.w.AddSnapshotRoot(rig.bulb, rig.phone, rig.sniffer, rig.injector)
	bulbRadio := rig.bulb.Peripheral.Device.Stack.Radio
	for !(rig.sniffer.timer.Label() == rig.sniffer.winCloseLabel && bulbRadio.Listening()) {
		rig.w.Sched.Step()
	}
	var log []string
	rig.sniffer.OnPacket = func(p SniffedPacket) {
		log = append(log, fmt.Sprint(p.Role, p.Event, p.Channel, p.StartAt, p.PDU.Header))
	}
	snap := rig.w.Snapshot()
	run := func() string {
		log = log[:0]
		rig.w.RunFor(2 * sim.Second)
		return fmt.Sprint(log, rig.w.Sched.Processed(), rig.sniffer.State().EventCount)
	}
	first := run()
	rig.w.Fork(snap)
	if second := run(); second != first {
		t.Fatalf("fork replay diverged:\nfirst  %s\nsecond %s", first, second)
	}
	if len(log) < 40 {
		t.Fatalf("only %d packets sniffed", len(log))
	}
}
