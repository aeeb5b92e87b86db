package injectable

import (
	"testing"

	"injectable/internal/ble"
	"injectable/internal/ble/pdu"
	"injectable/internal/devices"
	"injectable/internal/host"
	"injectable/internal/link"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// attackRig is the paper's triangle setup: bulb at origin, phone 2 m away,
// attacker 2 m from both (equilateral, §VII Fig. 8).
type attackRig struct {
	w        *host.World
	bulb     *devices.Lightbulb
	phone    *devices.Smartphone
	attacker *host.Device
	sniffer  *Sniffer
	injector *Injector
}

func newAttackRig(t *testing.T, seed uint64, interval uint16) *attackRig {
	t.Helper()
	w := host.NewWorld(host.WorldConfig{Seed: seed})
	rig := &attackRig{w: w}
	rig.bulb = devices.NewLightbulb(w.NewDevice(host.DeviceConfig{
		Name: "bulb", Position: phy.Position{X: 0, Y: 0},
	}))
	rig.phone = devices.NewSmartphone(w.NewDevice(host.DeviceConfig{
		Name: "phone", Position: phy.Position{X: 2, Y: 0},
	}), devices.SmartphoneConfig{
		ConnParams: link.ConnParams{Interval: interval},
	})
	// Attacker: nRF52840-grade clock (rated 20 ppm, sharp wakeups).
	rig.attacker = w.NewDevice(host.DeviceConfig{
		Name: "attacker", Position: phy.Position{X: 1, Y: 1.732},
		ClockPPM: 20, ClockJitter: 500 * sim.Nanosecond,
	})
	rig.sniffer = NewSniffer(rig.attacker.Stack)
	rig.injector = NewInjector(rig.attacker.Stack, rig.sniffer, InjectorConfig{})
	return rig
}

// connectAndSync brings the connection up with the sniffer following it.
func (rig *attackRig) connectAndSync(t *testing.T) {
	t.Helper()
	rig.sniffer.Start()
	rig.bulb.Peripheral.StartAdvertising()
	rig.phone.Connect(rig.bulb.Peripheral.Device.Address())
	rig.w.RunFor(3 * sim.Second)
	if !rig.phone.Central.Connected() {
		t.Fatal("phone did not connect")
	}
	if !rig.sniffer.Following() {
		t.Fatal("sniffer did not capture the CONNECT_REQ")
	}
}

func TestSnifferCapturesConnectReq(t *testing.T) {
	rig := newAttackRig(t, 1, 36)
	captured := false
	rig.sniffer.OnConnectReq = func(req pdu.ConnectReq) { captured = true }
	rig.connectAndSync(t)
	if !captured {
		t.Fatal("OnConnectReq not fired")
	}
	st := rig.sniffer.State()
	if st == nil {
		t.Fatal("no state")
	}
	if st.Params.Interval != 36 {
		t.Fatalf("sniffed interval = %d", st.Params.Interval)
	}
	if st.Params.AccessAddress == 0 {
		t.Fatal("no access address sniffed")
	}
}

func TestSnifferTracksPacketsAndSequence(t *testing.T) {
	rig := newAttackRig(t, 2, 24)
	var masters, slaves int
	rig.sniffer.OnPacket = func(p SniffedPacket) {
		switch p.Role {
		case link.RoleMaster:
			masters++
		case link.RoleSlave:
			slaves++
		}
	}
	rig.connectAndSync(t)
	rig.w.RunFor(2 * sim.Second)
	if masters < 20 || slaves < 20 {
		t.Fatalf("sniffed %d master / %d slave packets", masters, slaves)
	}
	st := rig.sniffer.State()
	if !st.HaveSlaveSeq || !st.AnchorKnown {
		t.Fatal("sequence state not tracked")
	}
	// The sniffer's view of the slave SN/NESN must match the ground truth.
	sn, nesn := rig.bulb.Peripheral.Conn().SequenceState()
	if st.SlaveNESN != nesn && st.SlaveSN != sn {
		t.Fatalf("sniffed seq (%t,%t) vs truth (%t,%t)", st.SlaveSN, st.SlaveNESN, sn, nesn)
	}
}

func TestSnifferFollowsAcrossChannelMapUpdate(t *testing.T) {
	rig := newAttackRig(t, 3, 24)
	rig.connectAndSync(t)
	newMap := rig.sniffer.State().Params.ChannelMap.Without(1, 2, 3, 4, 5, 6, 7, 8)
	if err := rig.phone.Central.Conn().RequestChannelMapUpdate(newMap); err != nil {
		t.Fatal(err)
	}
	seen := 0
	rig.sniffer.OnPacket = func(p SniffedPacket) { seen++ }
	rig.w.RunFor(3 * sim.Second)
	if rig.sniffer.State().Params.ChannelMap != newMap {
		t.Fatal("sniffer did not apply the channel map update")
	}
	if seen < 20 {
		t.Fatalf("sniffer lost the connection after the update (saw %d packets)", seen)
	}
}

func TestSnifferFollowsAcrossConnectionUpdate(t *testing.T) {
	rig := newAttackRig(t, 4, 24)
	rig.connectAndSync(t)
	if err := rig.phone.Central.Conn().RequestConnectionUpdate(2, 2, 48, 0, 200); err != nil {
		t.Fatal(err)
	}
	rig.w.RunFor(2 * sim.Second)
	seen := 0
	rig.sniffer.OnPacket = func(p SniffedPacket) { seen++ }
	rig.w.RunFor(2 * sim.Second)
	if got := rig.sniffer.State().Params.Interval; got != 48 {
		t.Fatalf("sniffer interval = %d after update", got)
	}
	if seen < 10 {
		t.Fatalf("sniffer lost the connection after the update (saw %d packets)", seen)
	}
}

func TestInjectWriteCommandTurnsBulbOn(t *testing.T) {
	rig := newAttackRig(t, 5, 36)
	rig.connectAndSync(t)
	rig.w.RunFor(200 * sim.Millisecond)

	frame := ForgeATTWriteCommand(rig.bulb.ControlHandle(), devices.PowerCommand(true))
	var report *Report
	err := rig.injector.Inject(frame, func(r Report) { report = &r })
	if err != nil {
		t.Fatal(err)
	}
	rig.w.RunFor(20 * sim.Second)
	if report == nil {
		t.Fatal("injection never settled")
	}
	if !report.Success {
		t.Fatalf("injection failed after %d attempts", report.AttemptCount())
	}
	if !rig.bulb.On {
		t.Fatal("heuristic claimed success but the bulb is off")
	}
	// The connection must survive the injection (stealth property).
	if !rig.phone.Central.Connected() || !rig.bulb.Peripheral.Connected() {
		t.Fatal("injection broke the connection")
	}
	t.Logf("success after %d attempts", report.AttemptCount())
}

func TestInjectionHeuristicMatchesGroundTruth(t *testing.T) {
	// Run several injections; whenever the heuristic reports success the
	// device state must reflect the command, validating eq. 7 against the
	// simulator's ground truth.
	rig := newAttackRig(t, 6, 36)
	rig.connectAndSync(t)
	for i := 0; i < 5; i++ {
		want := i%2 == 0
		frame := ForgeATTWriteCommand(rig.bulb.ControlHandle(), devices.PowerCommand(want))
		var report *Report
		if err := rig.injector.Inject(frame, func(r Report) { report = &r }); err != nil {
			t.Fatal(err)
		}
		rig.w.RunFor(20 * sim.Second)
		if report == nil || !report.Success {
			t.Fatalf("round %d: injection failed", i)
		}
		if rig.bulb.On != want {
			t.Fatalf("round %d: heuristic success but bulb=%t want %t", i, rig.bulb.On, want)
		}
	}
}

func TestInjectionAttemptsReasonable(t *testing.T) {
	// In the triangle setup at interval 36 the paper reports low medians
	// (< 4 attempts); allow generous slack but catch regressions.
	attempts := make([]int, 0, 10)
	for seed := uint64(0); seed < 10; seed++ {
		rig := newAttackRig(t, 100+seed, 36)
		rig.connectAndSync(t)
		frame := ForgeATTWriteCommand(rig.bulb.ControlHandle(), devices.PowerCommand(true))
		var report *Report
		if err := rig.injector.Inject(frame, func(r Report) { report = &r }); err != nil {
			t.Fatal(err)
		}
		rig.w.RunFor(40 * sim.Second)
		if report == nil || !report.Success {
			t.Fatalf("seed %d: injection failed", seed)
		}
		attempts = append(attempts, report.AttemptCount())
	}
	sum := 0
	for _, a := range attempts {
		sum += a
	}
	mean := float64(sum) / float64(len(attempts))
	t.Logf("attempts per success: %v (mean %.1f)", attempts, mean)
	if mean > 12 {
		t.Fatalf("mean attempts %.1f — far above the paper's reported behaviour", mean)
	}
}

func TestInjectRequiresFollowedConnection(t *testing.T) {
	w := host.NewWorld(host.WorldConfig{Seed: 9})
	dev := w.NewDevice(host.DeviceConfig{Name: "attacker"})
	sniffer := NewSniffer(dev.Stack)
	injector := NewInjector(dev.Stack, sniffer, InjectorConfig{})
	if err := injector.Inject(ForgeTerminateInd(), nil); err == nil {
		t.Fatal("injection without sync accepted")
	}
}

func TestDoubleInjectRejected(t *testing.T) {
	rig := newAttackRig(t, 10, 36)
	rig.connectAndSync(t)
	frame := ForgeATTWriteCommand(rig.bulb.ControlHandle(), devices.PowerCommand(true))
	if err := rig.injector.Inject(frame, nil); err != nil {
		t.Fatal(err)
	}
	if err := rig.injector.Inject(frame, nil); err == nil {
		t.Fatal("concurrent injection accepted")
	}
}

func TestInjectionSNFormula(t *testing.T) {
	// Eq. 6: SN_a = NESN_s, NESN_a = (SN_s + 1) mod 2.
	st := &ConnState{SlaveSN: true, SlaveNESN: false}
	sn, nesn := st.InjectionSN()
	if sn != false || nesn != false {
		t.Fatalf("eq6(%t,%t) = (%t,%t)", st.SlaveSN, st.SlaveNESN, sn, nesn)
	}
	st = &ConnState{SlaveSN: false, SlaveNESN: true}
	sn, nesn = st.InjectionSN()
	if sn != true || nesn != true {
		t.Fatalf("eq6 wrong")
	}
}

func TestWindowWideningEstimate(t *testing.T) {
	// Eq. 5 with master SCA ≤50 ppm, assumed slave 20 ppm, interval
	// 36 × 1.25 ms: (70/1e6) × 45 ms + 32 µs = 35.15 µs.
	got := WindowWideningEstimate(ble.SCA31to50ppm, 20, 45*sim.Millisecond)
	if got != 35150*sim.Nanosecond {
		t.Fatalf("widening = %v", got)
	}
}

// TestInjectionDeterministicPerSeed: identical seeds must reproduce the
// attack byte-for-byte (the "every bug report is a seed" property).
func TestInjectionDeterministicPerSeed(t *testing.T) {
	run := func() (int, sim.Time) {
		rig := newAttackRig(t, 4242, 36)
		rig.connectAndSync(t)
		var rep *Report
		frame := ForgeATTWriteCommand(rig.bulb.ControlHandle(), devices.PowerCommand(true))
		if err := rig.injector.Inject(frame, func(r Report) { rep = &r }); err != nil {
			t.Fatal(err)
		}
		rig.w.RunFor(30 * sim.Second)
		if rep == nil || !rep.Success {
			t.Fatal("injection failed")
		}
		return rep.AttemptCount(), rep.Attempts[len(rep.Attempts)-1].TxStart
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
}

// TestEncryptedSlaveHijackFails: scenario B needs a CRC-valid LL control
// frame; on an encrypted link the injected plaintext TERMINATE_IND fails
// its MIC and only tears the link down (DoS), never yielding a hijack.
func TestEncryptedSlaveHijackFails(t *testing.T) {
	rig := newAttackRig(t, 4243, 36)
	rig.connectAndSync(t)
	if err := rig.phone.Central.Pair(); err != nil {
		t.Fatal(err)
	}
	rig.w.RunFor(5 * sim.Second)
	if !rig.phone.Central.Conn().Encrypted() {
		t.Fatal("pairing failed")
	}
	a := rig.newAttacker()
	var hijack *SlaveHijack
	var herr error
	err := a.HijackSlave(hackedServer(), func(h *SlaveHijack, e error) { hijack, herr = h, e })
	if err != nil {
		t.Fatal(err)
	}
	rig.w.RunFor(60 * sim.Second)
	if hijack != nil && herr == nil {
		// If the callback claims success, the "hijacked" conn must fail to
		// serve anything (no valid session) — but in practice the MIC DoS
		// kills the link before any confirmed injection.
		t.Fatal("slave hijack claimed success on an encrypted connection")
	}
}

// TestInjectAfterConnectionLossReusesItsHook: an injection cut short by
// connection loss leaves its event-close hook installed, and the next
// Inject must take that hook over rather than chain a second one onto it —
// a chained pair would arm two attempts per closed event. The callbacks
// the hooks replaced still run exactly once per event and per loss.
func TestInjectAfterConnectionLossReusesItsHook(t *testing.T) {
	rig := newAttackRig(t, 5, 36)
	rig.connectAndSync(t)
	var closed []uint16
	lost := 0
	rig.sniffer.OnEventClosed = func(st *ConnState) { closed = append(closed, st.EventCount) }
	rig.sniffer.OnLost = func() { lost++ }
	frame := ForgeATTWriteCommand(rig.bulb.ControlHandle(), devices.PowerCommand(true))

	// The central leaves; an injection started now waits on dead air
	// until the sniffer declares the connection lost.
	rig.phone.Central.Conn().Terminate()
	rig.w.RunFor(200 * sim.Millisecond)
	var first *Report
	if err := rig.injector.Inject(frame, func(r Report) { first = &r }); err != nil {
		t.Fatal(err)
	}
	rig.w.RunFor(10 * sim.Second)
	if first == nil || !first.ConnectionLost || first.Success {
		t.Fatalf("first injection = %+v, want settled as connection-lost", first)
	}
	if lost != 1 {
		t.Fatalf("the replaced OnLost ran %d times, want 1", lost)
	}
	if !rig.injector.eventClosedHooked {
		t.Fatal("the connection-lost finish left no event-close hook; the case under test did not arise")
	}

	// Reconnect, and inject again before the new connection's first event
	// closes, while the stale hook is still installed.
	rig.sniffer.Start()
	rig.bulb.Peripheral.StartAdvertising()
	rig.phone.Connect(rig.bulb.Peripheral.Device.Address())
	deadline := rig.w.Now().Add(5 * sim.Second)
	for !rig.sniffer.Following() && rig.w.Now() < deadline {
		rig.w.Sched.Step()
	}
	if !rig.sniffer.Following() {
		t.Fatal("the sniffer did not follow the new connection")
	}
	before := len(closed)
	var second *Report
	if err := rig.injector.Inject(frame, func(r Report) { second = &r }); err != nil {
		t.Fatal(err)
	}
	rig.w.RunFor(20 * sim.Second)
	if second == nil || !second.Success || !rig.bulb.On {
		t.Fatalf("second injection = %+v (bulb on=%t), want a success", second, rig.bulb.On)
	}
	events := map[uint16]bool{}
	for _, a := range second.Attempts {
		if events[a.Event] {
			t.Fatalf("two attempts at event %d: %+v", a.Event, second.Attempts)
		}
		events[a.Event] = true
	}
	// Events an attempt takes over close without the sniffer, so the
	// counts skip those; none may repeat.
	for i := before + 1; i < len(closed); i++ {
		if closed[i] <= closed[i-1] {
			t.Fatalf("the replaced OnEventClosed saw events %v", closed[before:])
		}
	}
	if len(closed) == before {
		t.Fatal("the replaced OnEventClosed never ran on the new connection")
	}
	if rig.injector.eventClosedHooked {
		t.Fatal("the successful injection left its event-close hook installed")
	}

	// The next loss reaches the replaced OnLost once more.
	rig.phone.Central.Conn().Terminate()
	rig.w.RunFor(10 * sim.Second)
	if lost != 2 {
		t.Fatalf("the replaced OnLost ran %d times after the second loss, want 2", lost)
	}
}
