package experiments

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/pdu"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// TableIFrameFormat regenerates Table I: the LE 1M frame format, with the
// sizes coming from the live codec rather than constants.
func TableIFrameFormat() *Table {
	p := pdu.DataPDU{Header: pdu.DataHeader{LLID: pdu.LLIDStart}, Payload: make([]byte, 12)}
	raw := p.Marshal()
	return &Table{
		Title:  "Table I — frame format for LE 1M",
		Header: []string{"field", "size", "notes"},
		Rows: [][]string{
			{"Preamble", "1 byte", "receiver frame detection"},
			{"Access Address", fmt.Sprintf("%d bytes", phy.AccessAddressBytes), "advertising vs connection"},
			{"PDU", fmt.Sprintf("variable (example: %d bytes)", len(raw)), "2-byte header + payload"},
			{"CRC", fmt.Sprintf("%d bytes", phy.CRCBytes), "poly x²⁴+x¹⁰+x⁹+x⁶+x⁴+x³+x+1"},
		},
		Notes: []string{
			fmt.Sprintf("a 14-byte PDU airs in %v at LE 1M (the paper's 22-byte / 176 µs frame)",
				phy.LE1M.AirTime(14)),
		},
	}
}

// TableIIConnectReq regenerates Table II by marshalling a CONNECT_REQ and
// reporting each field's offset and bytes from the wire image.
func TableIIConnectReq() *Table {
	req := pdu.ConnectReq{
		InitAddr:      ble.MustParseAddress("C1:11:11:11:11:11"),
		AdvAddr:       ble.MustParseAddress("C2:22:22:22:22:22"),
		AccessAddress: 0x50655641,
		CRCInit:       0xABCDEF,
		WinSize:       2, WinOffset: 7, Interval: 36, Latency: 0, Timeout: 100,
		ChannelMap: ble.AllChannels, Hop: 9, SCA: ble.SCA31to50ppm,
	}
	raw := req.Marshal()
	payload := raw[2:]
	fields := []struct {
		name string
		off  int
		n    int
	}{
		{"Init. addr.", 0, 6}, {"Adv. addr.", 6, 6}, {"Access addr.", 12, 4},
		{"CRCInit", 16, 3}, {"WinSize", 19, 1}, {"WinOffset", 20, 2},
		{"Hop interval", 22, 2}, {"Latency", 24, 2}, {"Timeout", 26, 2},
		{"Channel Map", 28, 5}, {"Hop increment + SCA", 33, 1},
	}
	t := &Table{
		Title:  "Table II — CONNECT_REQ LL PDU layout (from the live codec)",
		Header: []string{"field", "offset", "size", "wire bytes"},
	}
	for _, f := range fields {
		t.Rows = append(t.Rows, []string{
			f.name, fmt.Sprintf("%d", f.off), fmt.Sprintf("%d", f.n),
			fmt.Sprintf("% x", payload[f.off:f.off+f.n]),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total payload %d bytes", len(payload)))
	return t
}

// figRig builds the Fig. 1/2 world — the bulb and the phone at Hop
// Interval 24, the attacker idle — and brings the link up with a 2 s
// handshake and no sniffer. o, when non-nil, watches the medium from the
// start.
func figRig(seed uint64, o medium.Observer) (*TrialWorld, error) {
	tw, err := BuildTrialWorld(TrialConfig{Seed: seed, Interval: 24, CentralName: "phone"}.WithDefaults(), Instrumentation{})
	if err != nil {
		return nil, err
	}
	if o != nil {
		tw.W.Medium.AddObserver(o)
	}
	tw.Peripheral.StartAdvertising()
	tw.Phone.Connect(tw.Peripheral.Device.Address())
	tw.W.RunFor(2 * sim.Second)
	if !tw.Phone.Central.Connected() {
		return nil, fmt.Errorf("experiments: figure rig connection failed")
	}
	return tw, nil
}

// Fig1ConnectionEvents regenerates Fig. 1: two consecutive connection
// events with their anchor points, T_IFS response gaps and hop.
func Fig1ConnectionEvents(seed uint64) (*Table, error) {
	type frameObs struct {
		src     string
		ch      uint8
		at, end sim.Time
	}
	var frames []frameObs
	_, err := figRig(seed, obsFunc(func(o medium.TxObservation) {
		if o.Channel.IsData() {
			frames = append(frames, frameObs{o.Source, uint8(o.Channel), o.StartAt, o.EndAt})
		}
	}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "fig1 — two consecutive connection events",
		Header: []string{"frame", "device", "channel", "start", "gap from previous"},
		Notes: []string{
			"slave responses follow the master by T_IFS = 150 µs; anchors are one interval apart",
		},
	}
	if len(frames) < 4 {
		return nil, fmt.Errorf("experiments: captured %d frames", len(frames))
	}
	take := frames[len(frames)-4:]
	for i, f := range take {
		gap := "-"
		if i > 0 {
			gap = f.at.Sub(take[i-1].end).String()
		}
		role := "M→S (anchor)"
		if f.src == "bulb" {
			role = "S→M (response)"
		}
		t.Rows = append(t.Rows, []string{role, f.src, fmt.Sprintf("%d", f.ch), f.at.String(), gap})
	}
	return t, nil
}

// Fig2ConnectionUpdate regenerates Fig. 2: the connection update procedure
// with its instant and transmit window.
func Fig2ConnectionUpdate(seed uint64) (*Table, error) {
	tw, err := figRig(seed, nil)
	if err != nil {
		return nil, err
	}
	var anchors []sim.Time
	tw.Peripheral.Conn().OnEvent = func(e link.EventInfo) {
		if !e.Missed {
			anchors = append(anchors, e.Anchor)
		}
	}
	if err := tw.Phone.Central.Conn().RequestConnectionUpdate(2, 4, 48, 0, 200); err != nil {
		return nil, err
	}
	tw.W.RunFor(3 * sim.Second)
	if len(anchors) < 8 {
		return nil, fmt.Errorf("experiments: too few anchors")
	}
	t := &Table{
		Title:  "fig2 — connection update procedure (interval 24 → 48, WinOffset 4)",
		Header: []string{"anchor gap", "duration", "interpretation"},
		Notes: []string{
			"at the instant, the slave waits 1.25 ms + WinOffset×1.25 ms past the old anchor grid,",
			"then the new interval applies (paper Fig. 2)",
		},
	}
	for i := 1; i < len(anchors); i++ {
		gap := anchors[i].Sub(anchors[i-1])
		interp := "old interval (30 ms)"
		switch {
		case gap > 80*sim.Millisecond:
			interp = "update window: old interval + 1.25 ms + offset"
		case gap > 45*sim.Millisecond:
			interp = "new interval (60 ms)"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d→%d", i-1, i), gap.String(), interp,
		})
	}
	return t, nil
}

// Fig3AttackOverview regenerates Fig. 3: the injection race inside the
// widened receive window, with measured timings from a real attack run.
func Fig3AttackOverview(seed uint64) (*Table, error) {
	tw, err := scenarioWorld("lightbulb", seed, false, Instrumentation{})
	if err != nil {
		return nil, err
	}
	var masterTx []sim.Time
	tw.W.Medium.AddObserver(obsFunc(func(o medium.TxObservation) {
		if o.Source == "phone" && o.Channel.IsData() {
			masterTx = append(masterTx, o.StartAt)
		}
	}))
	handle, value := tw.featureWrite()
	var rep *injectable.Report
	if err := tw.Atk.InjectWrite(handle, value, func(r injectable.Report) { rep = &r }); err != nil {
		return nil, err
	}
	tw.W.RunFor(60 * sim.Second)
	if rep == nil || !rep.Success {
		return nil, fmt.Errorf("experiments: fig3 injection failed")
	}
	last := rep.Attempts[len(rep.Attempts)-1]
	var masterAt sim.Time
	for _, m := range masterTx {
		if m > last.TxStart.Add(-sim.Millisecond) && m < last.TxStart.Add(sim.Millisecond) {
			masterAt = m
		}
	}
	t := &Table{
		Title:  "fig3 — attack overview: the race inside the widened receive window",
		Header: []string{"event", "time", "comment"},
		Rows: [][]string{
			{"injected frame start (t_a)", last.TxStart.String(), "at the estimated window opening"},
			{"legitimate master frame (t_m)", masterAt.String(),
				fmt.Sprintf("%v after the injection", masterAt.Sub(last.TxStart))},
			{"injected frame end (t_a+d_a)", last.TxEnd.String(), ""},
			{"slave response (t_s)", last.SlaveAt.String(),
				fmt.Sprintf("%v after injected frame end ≈ T_IFS", last.SlaveAt.Sub(last.TxEnd))},
		},
		Notes: []string{fmt.Sprintf("success on attempt %d — the slave anchored on the attacker's frame", last.Number)},
	}
	return t, nil
}

// Fig4WindowWidening regenerates Fig. 4: the widening formula across Hop
// Intervals and SCA combinations (eq. 4/5).
func Fig4WindowWidening() *Table {
	t := &Table{
		Title:  "fig4 — window widening w = (SCA_M+SCA_S)/10⁶ × interval + 32 µs",
		Header: []string{"hopInterval", "interval", "w (50+20 ppm)", "w (500+500 ppm)", "w after 4 missed events"},
	}
	for _, hi := range []uint16{6, 25, 50, 75, 100, 150, 3200} {
		interval := sim.Duration(hi) * ble.ConnUnit
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", hi),
			interval.String(),
			link.WindowWidening(50, 20, interval).String(),
			link.WindowWidening(500, 500, interval).String(),
			link.WindowWidening(50, 20, 5*interval).String(),
		})
	}
	t.Notes = append(t.Notes, "the slave accepts any matching frame starting within ±w of the predicted anchor")
	return t
}

// Fig5InjectionOutcomes regenerates Fig. 5: the three outcomes of an
// injection attempt, reproduced deterministically at the medium level.
func Fig5InjectionOutcomes(seed uint64) (*Table, error) {
	t := &Table{
		Title:  "fig5 — three possible outcomes of an injection attempt",
		Header: []string{"situation", "t_a", "t_m", "injected ends before master?", "slave locked", "frame survived"},
		Notes: []string{
			"a) injected fits before the master's frame → success",
			"b) tail collision → success only if capture/phase favours the attacker",
			"c) master first → the slave anchors on the legitimate frame",
		},
	}
	cases := []struct {
		name        string
		payloadLen  int
		masterDelay sim.Duration
	}{
		{"a) no collision", 2, 120 * sim.Microsecond},   // 80 µs frame, master 120 µs later
		{"b) tail collision", 14, 40 * sim.Microsecond}, // 176 µs frame, master inside it
		{"c) master first", 14, -20 * sim.Microsecond},  // master beats the injection
	}
	for _, c := range cases {
		sched := sim.NewScheduler()
		med := medium.New(sched, sim.NewRNG(seed), medium.Config{})
		attacker := med.NewRadio(medium.RadioConfig{Name: "attacker", Position: phy.Position{X: 1, Y: 1.7}})
		master := med.NewRadio(medium.RadioConfig{Name: "master", Position: phy.Position{X: 2}})
		slave := med.NewRadio(medium.RadioConfig{Name: "slave", Position: phy.Position{X: 0}})
		slave.SetAccessAddress(0x71764129)
		slave.StartListening()

		frame := func(n int) medium.Frame {
			p := pdu.DataPDU{Header: pdu.DataHeader{LLID: pdu.LLIDStart}, Payload: make([]byte, n-2)}
			raw := p.Marshal()
			return medium.Frame{Mode: phy.LE1M, AccessAddress: 0x71764129, PDU: raw, CRC: crc.Compute(0x123456, raw)}
		}
		var got *medium.Received
		slave.OnFrame = func(rx medium.Received) { got = &rx }

		tA := sim.Time(100 * sim.Microsecond)
		tM := tA.Add(c.masterDelay)
		first, firstIsAttacker := tA, true
		second := tM
		if tM < tA {
			first, firstIsAttacker = tM, false
			second = tA
		}
		sched.At(first, "first", func() {
			if firstIsAttacker {
				attacker.Transmit(frame(c.payloadLen))
			} else {
				master.Transmit(frame(14))
			}
		})
		sched.At(second, "second", func() {
			if firstIsAttacker {
				master.Transmit(frame(14))
			} else {
				attacker.Transmit(frame(c.payloadLen))
			}
		})
		sched.RunFor(sim.Millisecond)

		lockedInjected := got != nil && got.StartAt == tA
		survived := got != nil && !got.Corrupted && lockedInjected
		endsBefore := tA.Add(phy.LE1M.AirTime(c.payloadLen)) <= tM
		t.Rows = append(t.Rows, []string{
			c.name, tA.String(), tM.String(),
			fmt.Sprintf("%t", endsBefore),
			fmt.Sprintf("injected=%t", lockedInjected),
			fmt.Sprintf("%t", survived),
		})
	}
	return t, nil
}

// Fig6SlaveHijack regenerates Fig. 6 as a machine-checked run of scenario
// B with its timeline.
func Fig6SlaveHijack(seed uint64) (*Table, error) {
	out, err := RunScenario("scenarioB", "lightbulb", seed, false, Instrumentation{})
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:  "fig6 — slave hijacking (LL_TERMINATE_IND injection)",
		Header: []string{"step", "result"},
		Rows: [][]string{
			{"inject LL_TERMINATE_IND", fmt.Sprintf("succeeded after %d attempt(s)", out.Attempts)},
			{"legitimate slave exits", "yes (acknowledged the terminate)"},
			{"master keeps the connection", fmt.Sprintf("%t", out.Success)},
			{"forged Device Name served", fmt.Sprintf("%t (\"Hacked\")", out.Success)},
		},
	}, nil
}

// Fig7MitM regenerates Fig. 7 as a machine-checked run of scenario D.
func Fig7MitM(seed uint64) (*Table, error) {
	out, err := RunScenario("scenarioD", "smartwatch", seed, false, Instrumentation{})
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:  "fig7 — man-in-the-middle via forged CONNECTION_UPDATE",
		Header: []string{"step", "result"},
		Rows: [][]string{
			{"forged update accepted by slave", "yes"},
			{"slave moves to attacker schedule at instant", "yes"},
			{"attacker serves both legs on one radio", fmt.Sprintf("%t", out.Success)},
			{"traffic rewritten on the fly", fmt.Sprintf("%t", out.Success)},
		},
	}, nil
}

// obsFunc adapts a function to medium.Observer.
type obsFunc func(medium.TxObservation)

// ObserveTx implements medium.Observer.
func (f obsFunc) ObserveTx(o medium.TxObservation) { f(o) }
