package experiments

import (
	"context"
	"fmt"

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

// withDefaults returns cfg with every zero knob filled in. All entry
// points (fresh, warm-fresh and fork-based execution) normalise through
// here so a configuration means the same trial everywhere.
func (cfg TrialConfig) withDefaults() TrialConfig {
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

// trialWorld bundles one trial configuration's world and actors. Exactly
// one of bulb/fob/watch is non-nil (the victim); peripheral aliases its
// link-layer peripheral whatever the type.
type trialWorld struct {
	w          *host.World
	bulb       *devices.Lightbulb
	fob        *devices.Keyfob
	watch      *devices.Smartwatch
	peripheral *host.Peripheral
	phone      *devices.Smartphone
	atk        *injectable.Attacker
	monitor    *ids.Monitor
	extras     []*host.Peripheral
}

// buildTrialWorld constructs the world, devices and attacker for cfg
// (defaults already applied). The actor wrappers are registered as
// snapshot roots so a snapshot taken from this world — and RekeyStreams —
// reaches every piece of their state. Construction order is fixed
// (victim, central, attacker, then monitor and extras) and the new-world
// knobs execute nothing when zero, so historical configurations draw the
// same RNG streams they always did.
func buildTrialWorld(cfg TrialConfig) (*trialWorld, error) {
	w := host.NewWorld(host.WorldConfig{
		Seed: cfg.Seed,
		Medium: medium.Config{
			PathLoss: phy.LogDistance{Walls: cfg.Walls},
			Capture:  cfg.Capture,
		},
		Obs:   cfg.Obs,
		Arena: cfg.Arena,
	})
	tw := &trialWorld{w: w}
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
		tw.peripheral, victimRoot = tw.bulb.Peripheral, tw.bulb
	case "keyfob":
		tw.fob = devices.NewKeyfob(targetDev)
		tw.peripheral, victimRoot = tw.fob.Peripheral, tw.fob
	case "smartwatch":
		tw.watch = devices.NewSmartwatch(targetDev)
		tw.peripheral, victimRoot = tw.watch.Peripheral, tw.watch
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
	tw.phone = devices.NewSmartphone(w.NewDevice(centralCfg), devices.SmartphoneConfig{
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
	tw.atk = injectable.NewAttacker(attacker.Stack, cfg.Injector)
	w.AddSnapshotRoot(victimRoot, tw.phone, tw.atk)
	if cfg.IDS {
		tw.monitor = ids.New(ids.Config{})
		w.Medium.AddObserver(tw.monitor)
		// The monitor's alert history must fork with the world, or forked
		// trials would inherit alerts from earlier forks.
		w.AddSnapshotRoot(tw.monitor)
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

// warm advances through connection establishment and attacker
// synchronisation — everything that happens before the injection run and
// is identical across the trials of one configuration.
func (tw *trialWorld) warm(cfg TrialConfig) error {
	tw.atk.Sniffer.Start()
	tw.peripheral.StartAdvertising()
	for _, p := range tw.extras {
		p.StartAdvertising()
	}
	tw.phone.Connect(tw.peripheral.Device.Address())
	if err := runFor(tw.w, 3*sim.Second, cfg.Ctx, nil); err != nil {
		return err
	}
	// In a crowded cell, bystander advertisements can collide with the
	// one-shot CONNECT_REQ — at the victim (the link never forms) or at
	// the sniffer (it misses the handshake it must observe). The only
	// recovery is a fresh handshake: tear the link down if it half-formed,
	// let the victim re-advertise, and initiate again. Worlds where the
	// fast path above succeeds never enter this loop, so their event
	// streams are untouched.
	for attempt := 0; attempt < 4; attempt++ {
		if tw.phone.Central.Connected() && tw.atk.Sniffer.Following() {
			return nil
		}
		if c := tw.phone.Central.Conn(); c != nil && !c.Closed() {
			c.Terminate()
			if err := runFor(tw.w, 500*sim.Millisecond, cfg.Ctx, nil); err != nil {
				return err
			}
		}
		tw.atk.Sniffer.Stop()
		tw.atk.Sniffer.Start()
		tw.peripheral.StartAdvertising()
		tw.phone.Connect(tw.peripheral.Device.Address())
		if err := runFor(tw.w, 3*sim.Second, cfg.Ctx, nil); err != nil {
			return err
		}
	}
	if !tw.phone.Central.Connected() {
		return fmt.Errorf("experiments: connection failed (seed %d)", cfg.Seed)
	}
	if !tw.atk.Sniffer.Following() {
		return fmt.Errorf("experiments: sniffer failed to sync (seed %d)", cfg.Seed)
	}
	return nil
}

// effectProbe arms the ground-truth observer for cfg's payload and
// returns a getter reporting whether the victim visibly executed the
// injected command (disconnect, for the terminate payload).
func (tw *trialWorld) effectProbe(cfg TrialConfig) func() bool {
	if cfg.Payload == PayloadTerminate {
		fired := false
		tw.peripheral.OnDisconnect = func(link.DisconnectReason) { fired = true }
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
func (tw *trialWorld) featureWrite() (uint16, []byte) {
	switch {
	case tw.fob != nil:
		return tw.fob.AlertHandle(), devices.RingCommand()
	case tw.watch != nil:
		return tw.watch.SMSHandle(), []byte("Forged SMS")
	default:
		return tw.bulb.ControlHandle(), devices.PowerCommand(true)
	}
}

// frame builds the injected PDU for cfg against this world's victim.
func (tw *trialWorld) frame(cfg TrialConfig) (pdu.DataPDU, error) {
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
func (tw *trialWorld) launchAttack(cfg TrialConfig, fire func() error) (deferred func() error, err error) {
	if cfg.GoalDelay <= 0 {
		return func() error { return nil }, fire()
	}
	var launchErr error
	tw.w.Sched.After(cfg.GoalDelay, "attack:launch", func() { launchErr = fire() })
	return func() error { return launchErr }, nil
}

// finish stamps goal-independent observations onto a result.
func (tw *trialWorld) finish(res TrialResult) TrialResult {
	if tw.monitor != nil {
		res.IDSAlerts = len(tw.monitor.Alerts())
	}
	return res
}

// attack performs one attack run against the warmed world, dispatching on
// the configured goal. The historical single-frame injection is the ""
// (inject) goal.
func (tw *trialWorld) attack(cfg TrialConfig) (TrialResult, error) {
	switch cfg.Goal {
	case "", GoalInject:
		return tw.attackInject(cfg)
	case GoalNone:
		if err := runFor(tw.w, cfg.SimBudget, cfg.Ctx, nil); err != nil {
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
func (tw *trialWorld) attackInject(cfg TrialConfig) (TrialResult, error) {
	effect := tw.effectProbe(cfg)
	frame, err := tw.frame(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.atk.Injector.Inject(frame, func(r injectable.Report) { report = &r })
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
	if tw.monitor == nil {
		decided = func() bool { return report != nil && effect() }
	}
	if err := runFor(tw.w, cfg.SimBudget, cfg.Ctx, decided); err != nil {
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
func (tw *trialWorld) attackHijackSlave(cfg TrialConfig) (TrialResult, error) {
	var done bool
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.atk.HijackSlave(hijackServer(), func(h *injectable.SlaveHijack, err error) {
			done = true
			if err == nil && h != nil {
				report = &h.Report
			}
		})
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.w, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if !done {
		return TrialResult{}, fmt.Errorf("experiments: slave hijack did not settle in %v", cfg.SimBudget)
	}
	hj := tw.atk.SlaveHijack
	success := hj != nil && !hj.Conn.Closed() && tw.phone.Central.Connected()
	expelled := tw.peripheral.Conn() == nil || tw.peripheral.Conn().Closed()
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
func (tw *trialWorld) attackHijackMaster(cfg TrialConfig) (TrialResult, error) {
	var done bool
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.atk.HijackMaster(cfg.Update, func(h *injectable.MasterHijack, err error) {
			done = true
			if err == nil && h != nil {
				report = &h.Report
			}
		})
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.w, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if !done {
		return TrialResult{}, fmt.Errorf("experiments: master hijack did not settle in %v", cfg.SimBudget)
	}
	hj := tw.atk.MasterHijack
	success := hj != nil && !hj.Conn.Closed()
	lostSlave := !tw.phone.Central.Connected()
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
func (tw *trialWorld) attackMITM(cfg TrialConfig) (TrialResult, error) {
	var done bool
	var session *injectable.MITM
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.atk.ManInTheMiddle(cfg.Update, injectable.MITMConfig{}, func(m *injectable.MITM, err error) {
			done = true
			if err == nil {
				session = m
			}
		})
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.w, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if !done {
		return TrialResult{}, fmt.Errorf("experiments: mitm did not settle in %v", cfg.SimBudget)
	}
	success := session != nil && !session.Closed()
	relayed := success && tw.phone.Central.Connected()
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
func (tw *trialWorld) attackUpdate(cfg TrialConfig) (TrialResult, error) {
	var report *injectable.Report
	deferred, err := tw.launchAttack(cfg, func() error {
		return tw.atk.InjectConnectionUpdate(cfg.Update, func(r injectable.Report) { report = &r })
	})
	if err != nil {
		return TrialResult{}, err
	}
	if err := runFor(tw.w, cfg.SimBudget, cfg.Ctx, nil); err != nil {
		return TrialResult{}, err
	}
	if err := deferred(); err != nil {
		return TrialResult{}, err
	}
	if report == nil {
		return TrialResult{}, fmt.Errorf("experiments: update injection did not settle in %v", cfg.SimBudget)
	}
	lostSlave := !tw.phone.Central.Connected()
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

// hijackServer is the minimal GATT profile an impostor slave serves.
func hijackServer() *gatt.Server {
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
	cfg = cfg.withDefaults()
	tw, err := buildTrialWorld(cfg)
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

// RunSeries runs n trials with distinct seeds and accumulates attempts of
// successful runs (failures count as MaxAttempts, flagged in the result).
type SeriesResult struct {
	Stats     Stats
	Failures  int
	Heuristic HeuristicTally
}

// HeuristicTally validates eq. 7 against ground truth across a series.
type HeuristicTally struct {
	Agree, Disagree int
}

// RunSeries runs the trial n times over seeds seedBase..seedBase+n-1,
// strictly in order — the campaign engine's single-worker degenerate case.
// Sweeps that want the worker pool go through Options.Parallel instead.
func RunSeries(cfg TrialConfig, n int, seedBase uint64, progress func(i int)) (SeriesResult, error) {
	opts := Options{TrialsPerPoint: n, SeedBase: seedBase, Parallel: 1}
	if progress != nil {
		opts.Progress = func(_ string, trial int) { progress(trial) }
	}
	points, err := runSweep(opts, "series", []SweepPoint{{
		Label: "series", SeedBase: seedBase, Cfg: cfg,
	}})
	if err != nil {
		return SeriesResult{}, err
	}
	return points[0].Series, nil
}
