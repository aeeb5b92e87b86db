package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"injectable/internal/att"
	"injectable/internal/ble"
	"injectable/internal/ble/pdu"
	"injectable/internal/devices"
	"injectable/internal/gatt"
	"injectable/internal/host"
	"injectable/internal/ids"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// Payload identifies the frame injected in a trial; each corresponds to an
// on-air PDU length the paper sweeps (§VII-B) and to an observable effect
// on the lightbulb.
type Payload int

// Trial payloads.
const (
	// PayloadTerminate: LL_TERMINATE_IND — 4-byte PDU, disconnects the
	// bulb.
	PayloadTerminate Payload = iota + 1
	// PayloadToggle: empty vendor write — 9-byte PDU, toggles the bulb.
	PayloadToggle
	// PayloadPowerOff: power command — 14-byte PDU (the paper's 22-byte
	// frame), turns the bulb off.
	PayloadPowerOff
	// PayloadColor: colour command — 16-byte PDU, recolours the bulb.
	PayloadColor
	// PayloadFeature: the victim type's feature-trigger write (power-on
	// for the lightbulb, ring for the keyfob, a forged SMS for the
	// smartwatch). The PDU length therefore depends on the target, so
	// PDULen reports 0. This is the payload generalized scenario worlds
	// use for non-lightbulb victims.
	PayloadFeature
)

// PDULen returns the on-air LL PDU length (header + payload).
func (p Payload) PDULen() int {
	switch p {
	case PayloadTerminate:
		return 4
	case PayloadToggle:
		return 9
	case PayloadPowerOff:
		return 14
	case PayloadColor:
		return 16
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (p Payload) String() string {
	switch p {
	case PayloadTerminate:
		return "terminate(4B)"
	case PayloadToggle:
		return "toggle(9B)"
	case PayloadPowerOff:
		return "power-off(14B)"
	case PayloadColor:
		return "color(16B)"
	case PayloadFeature:
		return "feature"
	default:
		return fmt.Sprintf("payload(%d)", int(p))
	}
}

// frame builds the injectable PDU for the bulb's control handle.
func (p Payload) frame(handle uint16) pdu.DataPDU {
	switch p {
	case PayloadTerminate:
		return injectable.ForgeTerminateInd()
	case PayloadToggle:
		return injectable.ForgeATTWriteCommand(handle, devices.ToggleCommand())
	case PayloadPowerOff:
		return injectable.ForgeATTWriteCommand(handle, devices.PowerCommand(false))
	case PayloadColor:
		return injectable.ForgeATTWriteCommand(handle, devices.ColorCommand(0xFF, 0x00, 0x00))
	default:
		return injectable.ForgeTerminateInd()
	}
}

// TrialConfig describes one injection trial: one fresh connection, one
// injection run, mirroring the paper's "25 injection attacks per value".
type TrialConfig struct {
	// Seed makes the trial reproducible.
	Seed uint64
	// Interval is the connection Hop Interval (paper's knob in exp. 1).
	Interval uint16
	// Payload picks the injected frame (paper's knob in exp. 2).
	Payload Payload
	// BulbPos, CentralPos, AttackerPos place the devices (exp. 3).
	BulbPos, CentralPos, AttackerPos phy.Position
	// Walls adds obstacles (exp. 3, wall variant).
	Walls []phy.Wall
	// PhoneGrade gives the central a phone-grade sloppy clock instead of
	// a dedicated controller (the paper's exp. 3 uses a smartphone).
	PhoneGrade bool
	// Capture overrides the collision model (ablation).
	Capture medium.CaptureModel
	// Injector tunes the attack (ablation).
	Injector injectable.InjectorConfig
	// MaxAttempts bounds the injection (0 = 200).
	MaxAttempts int
	// SimBudget bounds virtual time (0 = 120 s). It is an upper bound: an
	// inject-goal trial ends at the first 250 ms slice boundary where the
	// injector has reported and the ground-truth effect has shown, unless
	// the world carries the IDS. Undecided injections, IDS worlds and the
	// none, hijack-slave, hijack-master, mitm and update goals run the
	// whole budget, since their results read end-of-budget state.
	SimBudget sim.Duration
	// Obs collects metrics and injection forensics from the trial's world
	// (nil = no observability; campaign runs thread their per-trial hub
	// through here).
	Obs *obs.Hub
	// Arena recycles simulation allocations from the previous trial run on
	// it (nil = fresh allocations; campaign workers thread their
	// worker-local arena through here). Reuse never changes trial results.
	Arena *sim.Arena
	// Ctx, when non-nil, cancels the trial: the simulation is advanced in
	// short slices and aborts with Ctx's error at the first slice boundary
	// after cancellation (sub-millisecond of wall time). A nil Ctx runs to
	// completion. Slicing never changes results — the scheduler processes
	// the same events in the same order either way.
	Ctx context.Context

	// --- Generalized-world knobs (the scenario DSL compiles onto these).
	// Every zero value reproduces the historical bulb+phone world
	// byte-for-byte: no extra construction, no extra RNG draws. ---

	// Target picks the victim peripheral type: "" or "lightbulb" (the
	// historical default), "keyfob" or "smartwatch".
	Target string
	// TargetName overrides the victim's trace name ("" = "bulb", the
	// historical name, whatever the type).
	TargetName string
	// CentralName overrides the central's trace name ("" = "central").
	CentralName string
	// Latency, Hop, CSA2 and UnusedChans extend the central's connection
	// request beyond the hop interval: slave latency, hop increment (0 =
	// stack default), Channel Selection Algorithm #2, and how many of the
	// lowest data channels the initial channel map marks unused.
	Latency     uint16
	Hop         uint8
	CSA2        bool
	UnusedChans int
	// ActivityMS spaces the central's periodic GATT traffic in
	// milliseconds (0 = none, the historical default).
	ActivityMS int
	// TargetPPM/TargetJitter and CentralPPM/CentralJitter override the
	// victim's and central's sleep-clock model (0 = the stack default).
	// CentralPPM/CentralJitter take precedence over PhoneGrade.
	TargetPPM     float64
	TargetJitter  sim.Duration
	CentralPPM    float64
	CentralJitter sim.Duration
	// WideningScale scales the victim's window-widening countermeasure
	// (§VIII; 0 = the stack default of 1).
	WideningScale float64
	// Extras adds advertising peripherals sharing the band (bystander
	// traffic; they never connect).
	Extras []ExtraPeripheral
	// IDS attaches the §VIII monitor to the medium; the trial result then
	// carries its total alert count.
	IDS bool
	// Goal selects the attacker activity: "" or "inject" (the historical
	// single-frame injection), "none" (baseline world, no attack),
	// "hijack-slave", "hijack-master", "mitm", or "update" (forged
	// CONNECTION_UPDATE_IND without takeover — a stealth schedule split).
	Goal string
	// Update tunes the forged connection update for the hijack-master,
	// mitm and update goals.
	Update injectable.UpdateParams
	// GoalDelay postpones the attack launch this far past the warm phase
	// (0 = launch immediately, the historical behavior).
	GoalDelay sim.Duration
}

// ExtraPeripheral is an additional advertising peripheral sharing the
// band in a generalized scenario world.
type ExtraPeripheral struct {
	// Kind is the device type ("" = "lightbulb", or "keyfob",
	// "smartwatch").
	Kind string
	// Name is the trace name ("" = "extraN" by position).
	Name string
	// Pos places the device.
	Pos phy.Position
}

// Attack goals accepted by TrialConfig.Goal ("" means GoalInject).
const (
	GoalInject       = "inject"
	GoalNone         = "none"
	GoalHijackSlave  = "hijack-slave"
	GoalHijackMaster = "hijack-master"
	GoalMITM         = "mitm"
	GoalUpdate       = "update"
)

// ValidGoal reports whether g names an attack goal ("" included).
func ValidGoal(g string) bool {
	switch g {
	case "", GoalInject, GoalNone, GoalHijackSlave, GoalHijackMaster, GoalMITM, GoalUpdate:
		return true
	}
	return false
}

// TrialResult reports one trial.
type TrialResult struct {
	Success  bool
	Attempts int
	// EffectObserved: ground truth from the device model — the injected
	// command visibly executed (validates the eq. 7 heuristic).
	EffectObserved bool
	// HeuristicAgrees: the heuristic verdict matched the ground truth.
	HeuristicAgrees bool
	// IDSAlerts is the §VIII monitor's total alert count, present only
	// when the trial's world carried the IDS (TrialConfig.IDS). The
	// omitempty keeps historical result streams byte-identical.
	IDSAlerts int `json:"IDSAlerts,omitempty"`
}

// WithDefaults returns cfg with every zero knob filled in. All entry
// points (fresh, warm-fresh and fork-based execution, and the invariant
// swarm) normalise through here so a configuration means the same trial
// everywhere.
func (cfg TrialConfig) WithDefaults() TrialConfig {
	if cfg.Interval == 0 {
		cfg.Interval = 36
	}
	if cfg.Payload == 0 {
		cfg.Payload = PayloadPowerOff
	}
	if cfg.CentralPos == (phy.Position{}) {
		cfg.CentralPos = phy.Position{X: 2}
	}
	if cfg.AttackerPos == (phy.Position{}) {
		cfg.AttackerPos = phy.Position{X: 1, Y: 1.732}
	}
	if cfg.SimBudget == 0 {
		cfg.SimBudget = 120 * sim.Second
	}
	if cfg.MaxAttempts != 0 {
		cfg.Injector.MaxAttempts = cfg.MaxAttempts
	}
	return cfg
}

// TrialWorld bundles one trial configuration's world and actors. Exactly
// one of bulb/fob/watch is non-nil (the victim); Peripheral aliases its
// link-layer peripheral whatever the type. The exported handles are what
// the invariant swarm (internal/simtest) drives and observes.
type TrialWorld struct {
	W          *host.World
	Peripheral *host.Peripheral
	Phone      *devices.Smartphone
	Atk        *injectable.Attacker
	// Monitor is the §VIII IDS, present when the config asks for it.
	Monitor *ids.Monitor

	bulb   *devices.Lightbulb
	fob    *devices.Keyfob
	watch  *devices.Smartwatch
	extras []*host.Peripheral
}

// BuildTrialWorld constructs the world, devices and attacker for cfg
// (WithDefaults already applied), with inst's tracer and hub in every
// layer and its pcap writer on the attacker's sniffer; sweep and fork
// trials pass only a hub. Every Fig. 8 world of the package, and every
// world of the invariant swarm, is built here except the keystrokes world. The actor wrappers are registered as snapshot
// roots so a snapshot taken from this world — and RekeyStreams — reaches
// every piece of their state. Construction order is fixed (victim,
// central, attacker, then monitor and extras) and the new-world knobs
// execute nothing when zero, so historical configurations draw the same
// RNG streams they always did. Device streams are keyed by name, so
// TargetName and CentralName are part of a world's identity.
func BuildTrialWorld(cfg TrialConfig, inst Instrumentation) (*TrialWorld, error) {
	w := host.NewWorld(host.WorldConfig{
		Seed: cfg.Seed,
		Medium: medium.Config{
			PathLoss: phy.LogDistance{Walls: cfg.Walls},
			Capture:  cfg.Capture,
		},
		Tracer: inst.Tracer,
		Obs:    inst.Obs,
		Arena:  cfg.Arena,
	})
	tw := &TrialWorld{W: w}
	targetName := cfg.TargetName
	if targetName == "" {
		targetName = "bulb"
	}
	targetDev := w.NewDevice(host.DeviceConfig{
		Name: targetName, Position: cfg.BulbPos,
		ClockPPM: cfg.TargetPPM, ClockJitter: cfg.TargetJitter,
		WideningScale: cfg.WideningScale,
	})
	var victimRoot any
	switch cfg.Target {
	case "", "lightbulb":
		tw.bulb = devices.NewLightbulb(targetDev)
		tw.Peripheral, victimRoot = tw.bulb.Peripheral, tw.bulb
	case "keyfob":
		tw.fob = devices.NewKeyfob(targetDev)
		tw.Peripheral, victimRoot = tw.fob.Peripheral, tw.fob
	case "smartwatch":
		tw.watch = devices.NewSmartwatch(targetDev)
		tw.Peripheral, victimRoot = tw.watch.Peripheral, tw.watch
	default:
		return nil, fmt.Errorf("experiments: unknown target %q", cfg.Target)
	}
	centralName := cfg.CentralName
	if centralName == "" {
		centralName = "central"
	}
	centralCfg := host.DeviceConfig{Name: centralName, Position: cfg.CentralPos}
	if cfg.PhoneGrade {
		// Phones run BLE from a busy SoC: looser sleep clock and more
		// scheduling jitter than a dedicated controller.
		centralCfg.ClockPPM = 50
		centralCfg.ClockJitter = 8 * sim.Microsecond
	}
	if cfg.CentralPPM != 0 {
		centralCfg.ClockPPM = cfg.CentralPPM
	}
	if cfg.CentralJitter != 0 {
		centralCfg.ClockJitter = cfg.CentralJitter
	}
	var chMap ble.ChannelMap
	for ch := 0; ch < cfg.UnusedChans; ch++ {
		if chMap == 0 {
			chMap = ble.AllChannels
		}
		chMap = chMap.Without(uint8(ch))
	}
	activity := sim.Duration(-1)
	if cfg.ActivityMS > 0 {
		activity = sim.Duration(cfg.ActivityMS) * sim.Millisecond
	}
	tw.Phone = devices.NewSmartphone(w.NewDevice(centralCfg), devices.SmartphoneConfig{
		ConnParams: link.ConnParams{
			Interval: cfg.Interval, Latency: cfg.Latency, Hop: cfg.Hop,
			CSA2: cfg.CSA2, ChannelMap: chMap,
		},
		ActivityInterval: activity,
	})
	attacker := w.NewDevice(host.DeviceConfig{
		Name: "attacker", Position: cfg.AttackerPos,
		ClockPPM: 20, ClockJitter: 500 * sim.Nanosecond,
	})
	tw.Atk = injectable.NewAttacker(attacker.Stack, cfg.Injector)
	if inst.Pcap != nil {
		capturePcap(tw.Atk.Sniffer, inst.Pcap)
	}
	w.AddSnapshotRoot(victimRoot, tw.Phone, tw.Atk)
	if cfg.IDS {
		tw.Monitor = ids.New(ids.Config{})
		w.Medium.AddObserver(tw.Monitor)
		// The monitor's alert history must fork with the world, or forked
		// trials would inherit alerts from earlier forks.
		w.AddSnapshotRoot(tw.Monitor)
	}
	for i, ex := range cfg.Extras {
		name := ex.Name
		if name == "" {
			name = fmt.Sprintf("extra%d", i)
		}
		dev := w.NewDevice(host.DeviceConfig{Name: name, Position: ex.Pos})
		var p *host.Peripheral
		var root any
		switch ex.Kind {
		case "", "lightbulb":
			b := devices.NewLightbulb(dev)
			p, root = b.Peripheral, b
		case "keyfob":
			f := devices.NewKeyfob(dev)
			p, root = f.Peripheral, f
		case "smartwatch":
			sw := devices.NewSmartwatch(dev)
			p, root = sw.Peripheral, sw
		default:
			return nil, fmt.Errorf("experiments: extras[%d]: unknown kind %q", i, ex.Kind)
		}
		w.AddSnapshotRoot(root)
		tw.extras = append(tw.extras, p)
	}
	return tw, nil
}

// Connect is the one-shot handshake: the sniffer listens, the victim and
// any bystanders advertise, the central initiates, and 3 s of virtual
// time pass. Whether the link formed and the sniffer caught it is the
// caller's to check (linkErr).
func (tw *TrialWorld) Connect(ctx context.Context) error {
	tw.Atk.Sniffer.Start()
	tw.Peripheral.StartAdvertising()
	for _, p := range tw.extras {
		p.StartAdvertising()
	}
	tw.Phone.Connect(tw.Peripheral.Device.Address())
	return runFor(tw.W, 3*sim.Second, ctx, nil)
}

// linkErr reports why a handshake left the world unfit to attack: the
// central holds no connection, or the sniffer is not following it.
func (tw *TrialWorld) linkErr() error {
	if !tw.Phone.Central.Connected() {
		return errors.New("experiments: connection failed")
	}
	if !tw.Atk.Sniffer.Following() {
		return errors.New("experiments: sniffer failed to sync")
	}
	return nil
}

// warm advances through connection establishment and attacker
// synchronisation — everything that happens before the injection run and
// is identical across the trials of one configuration.
func (tw *TrialWorld) warm(cfg TrialConfig) error {
	if err := tw.Connect(cfg.Ctx); err != nil {
		return err
	}
	// In a crowded cell, bystander advertisements can collide with the
	// one-shot CONNECT_REQ — at the victim (the link never forms) or at
	// the sniffer (it misses the handshake it must observe). The only
	// recovery is a fresh handshake: tear the link down if it half-formed,
	// let the victim re-advertise, and initiate again. Worlds where the
	// first handshake succeeds never enter this loop, so their event
	// streams are untouched.
	for attempt := 0; attempt < 4; attempt++ {
		if tw.linkErr() == nil {
			return nil
		}
		if c := tw.Phone.Central.Conn(); c != nil && !c.Closed() {
			c.Terminate()
			if err := runFor(tw.W, 500*sim.Millisecond, cfg.Ctx, nil); err != nil {
				return err
			}
		}
		tw.Atk.Sniffer.Stop()
		tw.Atk.Sniffer.Start()
		tw.Peripheral.StartAdvertising()
		tw.Phone.Connect(tw.Peripheral.Device.Address())
		if err := runFor(tw.W, 3*sim.Second, cfg.Ctx, nil); err != nil {
			return err
		}
	}
	if err := tw.linkErr(); err != nil {
		return fmt.Errorf("%v (seed %d)", err, cfg.Seed)
	}
	return nil
}

// effectProbe arms the ground-truth observer for cfg's payload and
// returns a getter reporting whether the victim visibly executed the
// injected command (disconnect, for the terminate payload).
func (tw *TrialWorld) effectProbe(cfg TrialConfig) func() bool {
	if cfg.Payload == PayloadTerminate {
		fired := false
		tw.Peripheral.OnDisconnect = func(link.DisconnectReason) { fired = true }
		return func() bool { return fired }
	}
	switch {
	case tw.fob != nil:
		return func() bool { return tw.fob.RingCount > 0 }
	case tw.watch != nil:
		return func() bool { return len(tw.watch.Messages) > 0 }
	default:
		fired := false
		tw.bulb.OnChange = func(string) { fired = true }
		return func() bool { return fired }
	}
}

// featureWrite returns the victim type's feature-trigger handle and value
// (the PayloadFeature frame).
func (tw *TrialWorld) featureWrite() (uint16, []byte) {
	switch {
	case tw.fob != nil:
		return tw.fob.AlertHandle(), devices.RingCommand()
	case tw.watch != nil:
		return tw.watch.SMSHandle(), []byte("Forged SMS")
	default:
		return tw.bulb.ControlHandle(), devices.PowerCommand(true)
	}
}

// featureShown reports whether the victim visibly executed its
// feature-trigger write: the bulb is on, the keyfob rings, or the watch
// shows the forged SMS.
func (tw *TrialWorld) featureShown() bool {
	switch {
	case tw.fob != nil:
		return tw.fob.Ringing
	case tw.watch != nil:
		return slices.Contains(tw.watch.Messages, "Forged SMS")
	default:
		return tw.bulb.On
	}
}

// Frame builds the injected PDU for cfg against this world's victim.
func (tw *TrialWorld) Frame(cfg TrialConfig) (pdu.DataPDU, error) {
	if cfg.Payload == PayloadFeature {
		h, v := tw.featureWrite()
		return injectable.ForgeATTWriteCommand(h, v), nil
	}
	if tw.bulb == nil && cfg.Payload != PayloadTerminate {
		return pdu.DataPDU{}, fmt.Errorf("experiments: payload %v requires a lightbulb victim (use the feature payload)", cfg.Payload)
	}
	var handle uint16
	if tw.bulb != nil {
		handle = tw.bulb.ControlHandle()
	}
	return cfg.Payload.frame(handle), nil
}

// launchAttack fires the goal now, or schedules it cfg.GoalDelay into the
// run. The returned getter surfaces a deferred launch error after the
// simulation span completes.
func (tw *TrialWorld) launchAttack(cfg TrialConfig, fire func() error) (deferred func() error, err error) {
	if cfg.GoalDelay <= 0 {
		return func() error { return nil }, fire()
	}
	var launchErr error
	tw.W.Sched.After(cfg.GoalDelay, "attack:launch", func() { launchErr = fire() })
	return func() error { return launchErr }, nil
}

// finish stamps goal-independent observations onto a result.
func (tw *TrialWorld) finish(res TrialResult) TrialResult {
	if tw.Monitor != nil {
		res.IDSAlerts = len(tw.Monitor.Alerts())
	}
	return res
}

// attack performs one attack run against the warmed world, dispatching on
// the configured goal. The historical single-frame injection is the ""
// (inject) goal.
func (tw *TrialWorld) attack(cfg TrialConfig) (TrialResult, error) {
	switch cfg.Goal {
	case "", GoalInject:
		return tw.attackInject(cfg)
	case GoalNone:
		if err := runFor(tw.W, cfg.SimBudget, cfg.Ctx, nil); err != nil {
			return TrialResult{}, err
		}
		// Baseline world: nothing injected, so the heuristic trivially
		// agrees with the (absent) effect.
		return tw.finish(TrialResult{HeuristicAgrees: true}), nil
	case GoalHijackSlave:
		return tw.attackHijackSlave(cfg)
	case GoalHijackMaster:
		return tw.attackHijackMaster(cfg)
	case GoalMITM:
		return tw.attackMITM(cfg)
	case GoalUpdate:
		return tw.attackUpdate(cfg)
	default:
		return TrialResult{}, fmt.Errorf("experiments: unknown attacker goal %q", cfg.Goal)
	}
}

// attackInject is the paper's §VI-A single-frame injection run: inject,
// then check the heuristic verdict against device-model ground truth.
func (tw *TrialWorld) attackInject(cfg TrialConfig) (TrialResult, error) {
	effect := tw.effectProbe(cfg)
	frame, err := tw.Frame(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.Atk.Injector.Inject(frame, func(r injectable.Report) { report = &r })
	})
	if err != nil {
		return TrialResult{}, err
	}
	// The trial is decided once the injector has reported and the
	// ground-truth effect has latched: both are final, so the run stops at
	// the next slice boundary instead of idling out the budget. A trial
	// whose effect has not shown could still see it late, and an IDS
	// world's alert count covers the whole budget, so those run it out.
	var decided func() bool
	if tw.Monitor == nil {
		decided = func() bool { return report != nil && effect() }
	}
	if err := runFor(tw.W, cfg.SimBudget, cfg.Ctx, decided); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if report == nil {
		return TrialResult{}, fmt.Errorf("experiments: injection did not settle in %v", cfg.SimBudget)
	}
	return tw.finish(TrialResult{
		Success:         report.Success,
		Attempts:        report.AttemptCount(),
		EffectObserved:  effect(),
		HeuristicAgrees: report.Success == effect(),
	}), nil
}

// attackHijackSlave expels the victim and impersonates it (§VI-B).
// Success means the impostor holds a live connection to the legitimate
// master at the end of the budget; the observable effect is the victim's
// expulsion.
func (tw *TrialWorld) attackHijackSlave(cfg TrialConfig) (TrialResult, error) {
	var done bool
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.Atk.HijackSlave(HijackServer(), func(h *injectable.SlaveHijack, err error) {
			done = true
			if err == nil && h != nil {
				report = &h.Report
			}
		})
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.W, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if !done {
		return TrialResult{}, fmt.Errorf("experiments: slave hijack did not settle in %v", cfg.SimBudget)
	}
	hj := tw.Atk.SlaveHijack
	success := hj != nil && !hj.Conn.Closed() && tw.Phone.Central.Connected()
	expelled := tw.Peripheral.Conn() == nil || tw.Peripheral.Conn().Closed()
	return tw.finish(TrialResult{
		Success:         success,
		Attempts:        attemptCount(report),
		EffectObserved:  expelled,
		HeuristicAgrees: success == expelled,
	}), nil
}

// attackHijackMaster splits the victim onto a forged schedule and adopts
// the master role (§VI-C). Success means the impostor master holds the
// victim; the observable effect is the legitimate master losing it.
func (tw *TrialWorld) attackHijackMaster(cfg TrialConfig) (TrialResult, error) {
	var done bool
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.Atk.HijackMaster(cfg.Update, func(h *injectable.MasterHijack, err error) {
			done = true
			if err == nil && h != nil {
				report = &h.Report
			}
		})
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.W, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if !done {
		return TrialResult{}, fmt.Errorf("experiments: master hijack did not settle in %v", cfg.SimBudget)
	}
	hj := tw.Atk.MasterHijack
	success := hj != nil && !hj.Conn.Closed()
	lostSlave := !tw.Phone.Central.Connected()
	return tw.finish(TrialResult{
		Success:         success,
		Attempts:        attemptCount(report),
		EffectObserved:  lostSlave,
		HeuristicAgrees: success == lostSlave,
	}), nil
}

// attackMITM interposes on both roles (§VI-D). Success means the relay
// session is still alive at the end of the budget; the observable effect
// is the legitimate master still holding (what it believes to be) its
// device.
func (tw *TrialWorld) attackMITM(cfg TrialConfig) (TrialResult, error) {
	var done bool
	var session *injectable.MITM
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.Atk.ManInTheMiddle(cfg.Update, injectable.MITMConfig{}, func(m *injectable.MITM, err error) {
			done = true
			if err == nil {
				session = m
			}
		})
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.W, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if !done {
		return TrialResult{}, fmt.Errorf("experiments: mitm did not settle in %v", cfg.SimBudget)
	}
	success := session != nil && !session.Closed()
	relayed := success && tw.Phone.Central.Connected()
	return tw.finish(TrialResult{
		Success:         success,
		EffectObserved:  relayed,
		HeuristicAgrees: success == relayed,
	}), nil
}

// attackUpdate injects a forged CONNECTION_UPDATE_IND and walks away: the
// victim adopts the new schedule at the instant while the legitimate
// master keeps the old one, silently breaking the connection. The
// observable effect is the legitimate master losing its slave.
func (tw *TrialWorld) attackUpdate(cfg TrialConfig) (TrialResult, error) {
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.Atk.InjectConnectionUpdate(cfg.Update, func(r injectable.Report) { report = &r })
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.W, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if report == nil {
		return TrialResult{}, fmt.Errorf("experiments: update injection did not settle in %v", cfg.SimBudget)
	}
	lostSlave := !tw.Phone.Central.Connected()
	return tw.finish(TrialResult{
		Success:         report.Success,
		Attempts:        report.AttemptCount(),
		EffectObserved:  lostSlave,
		HeuristicAgrees: report.Success == lostSlave,
	}), nil
}

// attemptCount is a nil-safe report attempt count (a failed hijack's
// completion callback carries no report).
func attemptCount(r *injectable.Report) int {
	if r == nil {
		return 0
	}
	return r.AttemptCount()
}

// HijackServer is the minimal GATT profile an impostor slave serves.
func HijackServer() *gatt.Server {
	srv := gatt.NewServer(func([]byte) {})
	srv.AddService(&gatt.Service{
		UUID: att.UUID16(0x1800),
		Characteristics: []*gatt.Characteristic{{
			UUID: att.UUID16(0x2A00), Properties: gatt.PropRead, Value: []byte("injectable"),
		}},
	})
	return srv
}

// RunTrial builds a fresh world, establishes the connection, synchronises
// the attacker and performs one attack run.
func RunTrial(cfg TrialConfig) (TrialResult, error) {
	cfg = cfg.WithDefaults()
	tw, err := BuildTrialWorld(cfg, Instrumentation{Obs: cfg.Obs})
	if err != nil {
		return TrialResult{}, err
	}
	if err := tw.warm(cfg); err != nil {
		return TrialResult{}, err
	}
	return tw.attack(cfg)
}

// runFor advances the world by d of virtual time. With a nil ctx and a
// nil done it is exactly w.RunFor(d); otherwise the span is walked in
// short slices, and before each one done is consulted, then ctx. Slicing
// is invisible to the simulation: RunUntil processes every event up to
// each boundary and the same events fire in the same order as one
// contiguous run. A span whose final slice completes is a finished
// simulation — cancellation arriving during it does not fail the call —
// and so is a span cut at the first boundary where done reports true: the
// caller's result is decided and the rest of the span cannot change it.
func runFor(w *host.World, d sim.Duration, ctx context.Context, done func() bool) error {
	if ctx == nil && done == nil {
		w.RunFor(d)
		return nil
	}
	const slice = 250 * sim.Millisecond
	for d > 0 {
		if done != nil && done() {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		step := d
		if step > slice {
			step = slice
		}
		w.RunFor(step)
		d -= step
	}
	return nil
}

// SeriesResult accumulates one point's trials: attempts of successful
// runs (failures count as MaxAttempts, flagged in Failures) and the eq. 7
// heuristic tally.
type SeriesResult struct {
	Stats     Stats
	Failures  int
	Heuristic HeuristicTally
}

// HeuristicTally validates eq. 7 against ground truth across a series.
type HeuristicTally struct {
	Agree, Disagree int
}
