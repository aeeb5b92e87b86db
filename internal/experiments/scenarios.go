package experiments

import (
	"fmt"

	"injectable/internal/att"
	"injectable/internal/ble/pdu"
	"injectable/internal/campaign"
	"injectable/internal/devices"
	"injectable/internal/gatt"
	"injectable/internal/host"
	"injectable/internal/ids"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/sim"
)

// scenarioWorld builds the world the §VI scenarios attack: the Fig. 8
// triangle around target, the victim named after its type and the
// central named "phone", and brings the link up with connect's one-shot
// handshake. There are no retries: a failed handshake fails the run.
func scenarioWorld(target string, seed uint64, withIDS bool, inst Instrumentation) (*TrialWorld, error) {
	if target == "" {
		// BuildTrialWorld reads an empty Target as the lightbulb.
		return nil, fmt.Errorf("experiments: unknown target %q", target)
	}
	cfg := TrialConfig{Seed: seed, Target: target, TargetName: target, CentralName: "phone", IDS: withIDS}
	tw, err := BuildTrialWorld(cfg.WithDefaults(), inst)
	if err != nil {
		return nil, err
	}
	if err := tw.Connect(nil); err != nil {
		return nil, err
	}
	if err := tw.linkErr(); err != nil {
		return nil, err
	}
	return tw, nil
}

// scenarioFeatures describes each target's scenario-A feature: what the
// injected write does, and the characteristic it lands on.
var scenarioFeatures = map[string]struct {
	desc string
	char att.UUID
}{
	"lightbulb":  {"turn bulb on", devices.UUIDBulbControl},
	"keyfob":     {"make keyfob ring", devices.UUIDAlertLevel},
	"smartwatch": {"forge SMS to watch", devices.UUIDWatchSMS},
}

// ScenarioOutcome reports one scenario run against one device.
type ScenarioOutcome struct {
	Target   string
	Success  bool
	Attempts int
	Detail   string
	// IDS counters (when a monitor was attached).
	IDSAlerts map[ids.AlertKind]int
}

// alertCounts tallies a monitor's alerts by kind (nil without a monitor).
func alertCounts(m *ids.Monitor) map[ids.AlertKind]int {
	if m == nil {
		return nil
	}
	out := make(map[ids.AlertKind]int)
	for _, a := range m.Alerts() {
		out[a.Kind]++
	}
	return out
}

// forgedNameServer builds the §VI-B impostor profile: Device Name "Hacked".
func forgedNameServer() *gatt.Server {
	srv := gatt.NewServer(func([]byte) {})
	srv.AddService(&gatt.Service{
		UUID: att.UUID16(0x1800),
		Characteristics: []*gatt.Characteristic{{
			UUID: att.UUID16(0x2A00), Properties: gatt.PropRead, Value: []byte("Hacked"),
		}},
	})
	return srv
}

// ScenarioTargets lists the paper's three commercial devices.
func ScenarioTargets() []string { return []string{"lightbulb", "keyfob", "smartwatch"} }

// RunScenario runs the attack scenario registered under name (see
// ScenarioNames) at seed: scenarioA–D against target, one of
// ScenarioTargets, or keystrokes, which ignores target. withIDS attaches
// the §VIII monitor and reports its alerts; inst threads observability
// into the world, and its zero value disables it.
func RunScenario(name, target string, seed uint64, withIDS bool, inst Instrumentation) (ScenarioOutcome, error) {
	run, ok := scenarioDefs[name]
	if !ok {
		return ScenarioOutcome{}, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	return run(target, seed, withIDS, inst)
}

// scenarioA injects a feature-trigger write into the target (§VI-A).
func scenarioA(target string, seed uint64, withIDS bool, inst Instrumentation) (ScenarioOutcome, error) {
	tw, err := scenarioWorld(target, seed, withIDS, inst)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	handle, value := tw.featureWrite()
	var rep *injectable.Report
	if err := tw.Atk.InjectWrite(handle, value, func(r injectable.Report) { rep = &r }); err != nil {
		return ScenarioOutcome{}, err
	}
	tw.W.RunFor(60 * sim.Second)
	out := ScenarioOutcome{Target: target, Detail: scenarioFeatures[target].desc, IDSAlerts: alertCounts(tw.Monitor)}
	if rep != nil {
		out.Attempts = rep.AttemptCount()
		out.Success = rep.Success && tw.featureShown()
	}
	return out, nil
}

// scenarioB expels the slave and serves a "Hacked" device name (§VI-B).
func scenarioB(target string, seed uint64, withIDS bool, inst Instrumentation) (ScenarioOutcome, error) {
	tw, err := scenarioWorld(target, seed, withIDS, inst)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	var hijack *injectable.SlaveHijack
	var herr error
	err = tw.Atk.HijackSlave(forgedNameServer(), func(h *injectable.SlaveHijack, e error) { hijack, herr = h, e })
	if err != nil {
		return ScenarioOutcome{}, err
	}
	tw.W.RunFor(40 * sim.Second)
	out := ScenarioOutcome{Target: target, Detail: "slave hijack + forged name", IDSAlerts: alertCounts(tw.Monitor)}
	if herr != nil || hijack == nil {
		return out, nil
	}
	out.Attempts = hijack.Report.AttemptCount()

	// Verify: legitimate slave expelled, master alive, forged name served.
	var name []byte
	tw.Phone.GATT().Read(3, func(v []byte, err error) {
		if err == nil {
			name = v
		}
	})
	tw.W.RunFor(5 * sim.Second)
	out.Success = !tw.Peripheral.Connected() && tw.Phone.Central.Connected() && string(name) == "Hacked"
	return out, nil
}

// scenarioC splits the slave off with a forged CONNECTION_UPDATE and
// hijacks the master role (§VI-C).
func scenarioC(target string, seed uint64, withIDS bool, inst Instrumentation) (ScenarioOutcome, error) {
	tw, err := scenarioWorld(target, seed, withIDS, inst)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	var hijack *injectable.MasterHijack
	var herr error
	err = tw.Atk.HijackMaster(injectable.UpdateParams{},
		func(h *injectable.MasterHijack, e error) { hijack, herr = h, e })
	if err != nil {
		return ScenarioOutcome{}, err
	}
	tw.W.RunFor(60 * sim.Second)
	out := ScenarioOutcome{Target: target, Detail: "master hijack via forged update", IDSAlerts: alertCounts(tw.Monitor)}
	if herr != nil || hijack == nil {
		return out, nil
	}
	out.Attempts = hijack.Report.AttemptCount()

	// Verify: attacker owns the slave, legitimate master timed out, and a
	// scenario-A feature can be triggered through the hijacked role.
	handle, value := tw.featureWrite()
	hijack.Client.Write(handle, value, func(error) {})
	tw.W.RunFor(10 * sim.Second)
	out.Success = !hijack.Conn.Closed() && tw.Peripheral.Connected() &&
		!tw.Phone.Central.Connected() && tw.featureShown()
	return out, nil
}

// scenarioD establishes the MITM and rewrites traffic on the fly
// (§VI-D): a write carrying a 0xAA marker must reach the target as 0xBB.
func scenarioD(target string, seed uint64, withIDS bool, inst Instrumentation) (ScenarioOutcome, error) {
	tw, err := scenarioWorld(target, seed, withIDS, inst)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	mutated := false
	mutate := func(p pdu.DataPDU) (pdu.DataPDU, bool) {
		// Flip any 0xAA byte in relayed payloads to 0xBB.
		for i, b := range p.Payload {
			if b == 0xAA {
				p.Payload[i] = 0xBB
				mutated = true
			}
		}
		return p, true
	}
	var session *injectable.MITM
	var merr error
	err = tw.Atk.ManInTheMiddle(injectable.UpdateParams{},
		injectable.MITMConfig{OnMasterToSlave: mutate},
		func(m *injectable.MITM, e error) { session, merr = m, e })
	if err != nil {
		return ScenarioOutcome{}, err
	}
	tw.W.RunFor(60 * sim.Second)
	out := ScenarioOutcome{Target: target, Detail: "MITM with on-the-fly mutation", IDSAlerts: alertCounts(tw.Monitor)}
	if merr != nil || session == nil || session.Closed() {
		return out, nil
	}
	out.Attempts = session.Report.AttemptCount()

	// Send traffic carrying the 0xAA marker through the MITM.
	handle, _ := tw.featureWrite()
	var gotAtSlave []byte
	tw.Peripheral.GATT.FindCharacteristic(scenarioFeatures[target].char).OnWrite = func(v []byte) {
		gotAtSlave = append([]byte(nil), v...)
	}
	tw.Phone.GATT().WriteCommand(handle, []byte{0xAA, 0xAA})
	tw.W.RunFor(10 * sim.Second)

	rewritten := len(gotAtSlave) == 2 && gotAtSlave[0] == 0xBB && gotAtSlave[1] == 0xBB
	out.Success = mutated && rewritten &&
		tw.Phone.Central.Connected() && tw.Peripheral.Connected()
	return out, nil
}

// scenarioKeystrokes realises the paper's §IX future-work scenario:
// hijack the slave, present a HID keyboard via Service Changed, and
// inject keystrokes into the connected host. Its central is a HID-host
// Computer rather than a Smartphone, so it builds its own world, always
// around a keyfob; target is ignored. The IDS counts ride on every
// return, failed hijacks included.
func scenarioKeystrokes(_ string, seed uint64, withIDS bool, inst Instrumentation) (out ScenarioOutcome, err error) {
	w := host.NewWorld(host.WorldConfig{Seed: seed, Tracer: inst.Tracer, Obs: inst.Obs})
	bulbPos, centralPos, attackerPos := trianglePositions()
	fob := devices.NewKeyfob(w.NewDevice(host.DeviceConfig{Name: "keyfob", Position: bulbPos}))
	computer := devices.NewComputer(w.NewDevice(host.DeviceConfig{Name: "laptop", Position: centralPos}))
	atk := w.NewDevice(host.DeviceConfig{
		Name: "attacker", Position: attackerPos,
		ClockPPM: 20, ClockJitter: 500 * sim.Nanosecond,
	})
	attacker := injectable.NewAttacker(atk.Stack, injectable.InjectorConfig{})
	if inst.Pcap != nil {
		capturePcap(attacker.Sniffer, inst.Pcap)
	}
	var monitor *ids.Monitor
	if withIDS {
		monitor = ids.New(ids.Config{})
		w.Medium.AddObserver(monitor)
	}
	defer func() { out.IDSAlerts = alertCounts(monitor) }()

	attacker.Sniffer.Start()
	fob.Peripheral.StartAdvertising()
	computer.Connect(fob.Peripheral.Device.Address())
	w.RunFor(3 * sim.Second)
	if !attacker.Sniffer.Following() {
		return ScenarioOutcome{}, fmt.Errorf("experiments: sniffer failed to sync")
	}

	out = ScenarioOutcome{Target: "keyfob→keyboard", Detail: "HID keystroke injection (§IX)"}
	var ki *injectable.KeystrokeInjection
	err = attacker.InjectKeyboard("Wireless Keyboard", func(k *injectable.KeystrokeInjection, err error) {
		ki = k
	})
	if err != nil {
		return out, err
	}
	w.RunFor(50 * sim.Second)
	if ki == nil || !ki.Attached() {
		return out, nil
	}
	out.Attempts = ki.Hijack.Report.AttemptCount()
	if err := ki.Type("rm -rf  tmp x\n"); err != nil {
		return out, nil
	}
	w.RunFor(20 * sim.Second)
	out.Success = computer.HIDAttached && computer.Typed.Len() > 0
	return out, nil
}

// EncryptionOutcome reports the countermeasure experiment.
type EncryptionOutcome struct {
	// Paired reports pairing + encryption succeeded before the attack.
	Paired bool
	// FeatureTriggered: the injected write executed (must be false).
	FeatureTriggered bool
	// ConnectionDropped: the MIC failure tore the link down (the residual
	// DoS impact).
	ConnectionDropped bool
}

// RunEncryptedInjection pairs the devices, encrypts the link, then runs an
// injection: the paper's claim is confidentiality/integrity hold and only
// availability is lost (§IV). inst threads observability into the world.
func RunEncryptedInjection(seed uint64, inst Instrumentation) (EncryptionOutcome, error) {
	tw, err := scenarioWorld("lightbulb", seed, false, inst)
	if err != nil {
		return EncryptionOutcome{}, err
	}
	var out EncryptionOutcome
	if err := tw.Phone.Central.Pair(); err != nil {
		return out, err
	}
	tw.W.RunFor(5 * sim.Second)
	out.Paired = tw.Phone.Central.Connected() && tw.Phone.Central.Conn().Encrypted()
	if !out.Paired {
		return out, nil
	}
	tw.Peripheral.OnDisconnect = func(r link.DisconnectReason) {
		if r.Code == pdu.ErrCodeMICFailure {
			out.ConnectionDropped = true
		}
	}
	handle, value := tw.featureWrite()
	if err := tw.Atk.InjectWrite(handle, value, func(injectable.Report) {}); err != nil {
		return out, err
	}
	tw.W.RunFor(60 * sim.Second)
	out.FeatureTriggered = tw.featureShown()
	return out, nil
}

// ScenarioTable renders scenario outcomes across targets.
func ScenarioTable(title string, outcomes []ScenarioOutcome) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"target", "success", "injection attempts", "detail"},
	}
	for _, o := range outcomes {
		t.Rows = append(t.Rows, []string{
			o.Target, fmt.Sprintf("%t", o.Success), fmt.Sprintf("%d", o.Attempts), o.Detail,
		})
	}
	return t
}

// Fig8Topology renders the experimental setup of Fig. 8 as text.
func Fig8Topology() *Table {
	bulb, central, attacker := trianglePositions()
	t := &Table{
		Title:  "fig8 — experimental setup",
		Header: []string{"device", "position", "role"},
		Rows: [][]string{
			{"peripheral (bulb)", bulb.String(), "slave / injection target"},
			{"central (phone)", central.String(), "master, 2 m from peripheral"},
			{"attacker", attacker.String(), "equilateral triangle, 2 m edges"},
		},
		Notes: []string{
			"experiment 3 moves the attacker to (-d, 0) for d in {1,2,4,6,8,10} m (positions A–F)",
			"the wall variant adds a 7 dB wall at x = -0.5 m",
		},
	}
	for _, d := range []float64{1, 2, 4, 6, 8, 10} {
		_, _, atk := distancePositions(d)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("attacker pos %c", 'A'+int(map[float64]int{1: 0, 2: 1, 4: 2, 6: 3, 8: 4, 10: 5}[d])),
			atk.String(), fmt.Sprintf("%g m from peripheral", d),
		})
	}
	return t
}

// IDSValidation measures the monitor's detection and false-positive rates
// across many independent runs — TrialsPerPoint clean connections and as
// many attacked ones, fanned out over the campaign pool. An
// "injection-class" alert is a double frame or anchor deviation.
func IDSValidation(opts Options) (*Table, error) {
	opts.applyDefaults()
	n := opts.TrialsPerPoint
	injectionAlerts := func(alerts map[ids.AlertKind]int) int {
		return alerts[ids.AlertDoubleFrame] + alerts[ids.AlertAnchorDeviation] +
			alerts[ids.AlertRogueUpdate] + alerts[ids.AlertScheduleSplit]
	}
	base := opts.SeedBase
	spec := &campaign.Spec{Name: "ids-validation", SeedBase: base, Points: []campaign.Point{
		{
			Label: "clean", Trials: n,
			Seed: func(i int) uint64 { return base + uint64(i) },
			Run: func(t campaign.Trial) (any, error) {
				tw, err := scenarioWorld("lightbulb", t.Seed, true, Instrumentation{})
				if err != nil {
					return nil, err
				}
				tw.W.RunFor(20 * sim.Second) // clean traffic only
				return injectionAlerts(alertCounts(tw.Monitor)) > 0, nil
			},
		},
		{
			Label: "attack", Trials: n,
			Seed: func(i int) uint64 { return base + 1000 + uint64(i) },
			Run: func(t campaign.Trial) (any, error) {
				out, err := RunScenario("scenarioA", "lightbulb", t.Seed, true, Instrumentation{})
				if err != nil {
					return nil, err
				}
				return injectionAlerts(out.IDSAlerts) > 0, nil
			},
		},
	}}
	truePositives, falsePositives := 0, 0
	collect := campaign.OnResult(func(r campaign.Result) {
		if r.Err != nil {
			return
		}
		if alerted := r.Value.(bool); alerted {
			if r.Point == "clean" {
				falsePositives++
			} else {
				truePositives++
			}
		}
		opts.progress(r.Point, r.Index)
	})
	if _, err := opts.runner(collect).Run(spec); err != nil {
		return nil, err
	}
	return &Table{
		Title:  "IDS validation: detection vs false positives (20 s clean runs vs scenario A)",
		Header: []string{"runs per class", "true positives", "false positives", "TPR", "FPR"},
		Rows: [][]string{{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", truePositives),
			fmt.Sprintf("%d", falsePositives),
			fmt.Sprintf("%.0f%%", 100*float64(truePositives)/float64(n)),
			fmt.Sprintf("%.0f%%", 100*float64(falsePositives)/float64(n)),
		}},
		Notes: []string{"paper §VIII: an LL monitor 'able to detect, at the right instant, the presence of double frames'"},
	}, nil
}
