package experiments

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/host"
	"injectable/internal/ids"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/sim"
)

// BaselineOutcome compares a prior-art attack with InjectaBLE on the same
// objective.
type BaselineOutcome struct {
	Name    string
	Success bool
	// FramesTransmitted counts attacker transmissions (stealth proxy).
	FramesTransmitted int
	// JamBursts counts noise bursts (zero for InjectaBLE).
	JamBursts int
	// TimeToEffect is virtual time from attack start to the objective.
	TimeToEffect sim.Duration
	// IDSJammingAlerts counts how loudly an RF monitor saw the attack.
	IDSJammingAlerts int
	Detail           string
}

// RunBTLEJackBaseline reproduces the BTLEJack master hijack (paper §II,
// ref. [9]): jam every slave response until the legitimate master drops
// the connection through its supervision timeout, then adopt the master
// role. Loud and slow compared to scenario C's single forged frame.
func RunBTLEJackBaseline(seed uint64) (BaselineOutcome, error) {
	out := BaselineOutcome{Name: "btlejack-jam-hijack", Detail: "jam slave responses until master times out"}
	tw, err := BuildTrialWorld(TrialConfig{Seed: seed, CentralName: "phone", IDS: true}.WithDefaults(), Instrumentation{})
	if err != nil {
		return out, err
	}
	if err := tw.Connect(nil); err != nil {
		return out, err
	}
	if tw.linkErr() != nil {
		return out, fmt.Errorf("experiments: baseline setup failed")
	}

	// BTLEJack needs only the sniffer; its injector stays idle.
	w, stack, sniffer := tw.W, tw.Atk.Stack, tw.Atk.Sniffer
	start := w.Now()
	// BTLEJack jams with a power advantage; model the nRF's maximum.
	stack.Radio.SetTxPower(8)

	jamming := true
	// Jam the slave's response window: right after each sniffed master
	// frame, blast noise through the T_IFS gap and the response slot.
	sniffer.OnPacket = func(p injectable.SniffedPacket) {
		if !jamming || p.Role != link.RoleMaster {
			return
		}
		out.JamBursts++
		out.FramesTransmitted++
		sniffer.Pause()
		radio := stack.Radio
		// The radio is tuned to the event's channel already (sniffer).
		radio.TransmitNoise(ble.TIFS + 400*sim.Microsecond)
		radio.OnTxDone = func() {
			radio.OnTxDone = nil
			// The jam consumed the rest of this event: advance the
			// sniffer's event counter before re-arming it.
			sniffer.State().EventCount++
			sniffer.Resume()
		}
	}

	var conn *link.Conn
	masterGone := false
	tw.Phone.Central.OnDisconnect = func(link.DisconnectReason) {
		masterGone = true
		jamming = false
		out.TimeToEffect = w.Now().Sub(start)
		// Take over the master role immediately — the slave's own
		// supervision timeout is already counting.
		st := sniffer.State()
		if st == nil || !sniffer.Following() {
			return // lost sync: BTLEJack's takeover fragility
		}
		sniffer.Stop()
		c, err := link.AdoptMaster(stack, st.Params, st.Slave, link.AdoptionState{
			EventCount: st.EventCount,
			SN:         st.SlaveNESN,
			NESN:       !st.SlaveSN,
			LastAnchor: st.LastAnchor,
		}, st.PredictedAnchor())
		if err == nil {
			conn = c
		}
	}
	w.RunFor(8 * sim.Second)
	if !masterGone {
		return out, nil
	}
	out.Success = conn != nil && !conn.Closed() && tw.Peripheral.Connected()
	out.IDSJammingAlerts = len(tw.Monitor.AlertsOf(ids.AlertJamming))
	return out, nil
}

// RunInjectaBLEMasterHijackComparison runs scenario C under the same
// conditions and metrics as the BTLEJack baseline.
func RunInjectaBLEMasterHijackComparison(seed uint64) (BaselineOutcome, error) {
	out := BaselineOutcome{Name: "injectable-master-hijack", Detail: "single forged CONNECTION_UPDATE"}
	tw, err := scenarioWorld("lightbulb", seed, true, Instrumentation{})
	if err != nil {
		return out, err
	}
	start := tw.W.Now()
	var hijack *injectable.MasterHijack
	err = tw.Atk.HijackMaster(injectable.UpdateParams{},
		func(h *injectable.MasterHijack, e error) {
			hijack = h
			out.TimeToEffect = tw.W.Now().Sub(start)
		})
	if err != nil {
		return out, err
	}
	tw.W.RunFor(60 * sim.Second)
	if hijack == nil {
		return out, nil
	}
	out.FramesTransmitted = hijack.Report.AttemptCount()
	out.Success = !hijack.Conn.Closed() && tw.Peripheral.Connected() && !tw.Phone.Central.Connected()
	out.IDSJammingAlerts = len(tw.Monitor.AlertsOf(ids.AlertJamming))
	return out, nil
}

// RunGATTackerBaseline reproduces the BTLEJuice/GATTacker pre-connection
// MITM (paper §II, refs. [7][15]): one attacker dongle connects to the
// real peripheral (silencing its advertising, BTLEJuice-style) while a
// second exposes a clone to the victim central. Against an *already
// established* connection this machinery can only wait — the paper's core
// point about prior MITM tooling.
func RunGATTackerBaseline(seed uint64, connectionEstablishedFirst bool) (BaselineOutcome, error) {
	name := "gattacker-spoof"
	if connectionEstablishedFirst {
		name += "-vs-established"
	}
	out := BaselineOutcome{Name: name, Detail: "advertisement spoofing (pre-connection only)"}
	cfg := TrialConfig{Seed: seed, CentralName: "phone"}.WithDefaults()
	tw, err := BuildTrialWorld(cfg, Instrumentation{})
	if err != nil {
		return out, err
	}
	// The InjectaBLE attacker stays idle; GATTacker brings two dongles.
	w, bulb, phone := tw.W, tw.Peripheral, tw.Phone
	holdDev := w.NewDevice(host.DeviceConfig{Name: "attacker-hold", Position: cfg.AttackerPos})
	cloneDev := w.NewDevice(host.DeviceConfig{Name: "attacker-clone", Position: cfg.AttackerPos})

	if connectionEstablishedFirst {
		bulb.StartAdvertising()
		phone.Connect(bulb.Device.Address())
		w.RunFor(2 * sim.Second)
	}

	// Dongle 1 grabs the real peripheral so it stops advertising.
	hold := host.NewCentral(holdDev, host.CentralConfig{})
	if !connectionEstablishedFirst {
		bulb.StartAdvertising()
		hold.Connect(bulb.Device.Address())
		w.RunFor(2 * sim.Second)
		out.FramesTransmitted++ // the CONNECT_REQ
	}

	// Dongle 2 clones the bulb: same address, fast advertising.
	cloneDev.Stack.Address = bulb.Device.Address()
	clone := link.NewAdvertiser(cloneDev.Stack, link.AdvertiserConfig{
		AdvData:  []byte{0x02, 0x01, 0x06},
		Interval: 20 * sim.Millisecond,
	})
	hooked := false
	clone.OnConnect = func(c *link.Conn) { hooked = true }
	clone.Start()

	if !connectionEstablishedFirst {
		phone.Connect(bulb.Device.Address())
	}
	w.RunFor(5 * sim.Second)
	out.Success = hooked
	if connectionEstablishedFirst && hooked {
		return out, fmt.Errorf("experiments: spoofing hooked an established connection — impossible")
	}
	return out, nil
}

// BaselineTable renders baseline comparisons.
func BaselineTable(outcomes []BaselineOutcome) *Table {
	t := &Table{
		Title: "prior-art baselines vs InjectaBLE (paper §II / §VI-C)",
		Header: []string{"attack", "success", "attacker frames", "jam bursts",
			"time to effect", "IDS jamming alerts", "detail"},
	}
	for _, o := range outcomes {
		t.Rows = append(t.Rows, []string{
			o.Name, fmt.Sprintf("%t", o.Success), fmt.Sprintf("%d", o.FramesTransmitted),
			fmt.Sprintf("%d", o.JamBursts), o.TimeToEffect.String(),
			fmt.Sprintf("%d", o.IDSJammingAlerts), o.Detail,
		})
	}
	return t
}
