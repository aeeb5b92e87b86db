// Package simtest is the repository's correctness backstop: a deterministic
// randomized-world generator, a cross-layer invariant engine checking the
// paper's quantitative laws (eqs. 1–7) on every event, and a shrinker that
// reduces a failing world to a minimal scenario spec with a one-line repro.
//
// A world is an admitted scenario.Spec: it passes scenario.Validate, is
// lowered by scenario.TrialConfig and built by experiments.BuildTrialWorld,
// exactly as the daemon and the campaign engine build their trials. Only
// the jammer and the checker-blind widening fault sit beside the spec.
// Every generated world is derived from a single sim.RNG seed, so a
// violation report is reproducible from its seed alone:
//
//	go run ./cmd/simtest -seed N -shrink
package simtest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"injectable/internal/ble/pdu"
	"injectable/internal/experiments"
	"injectable/internal/host"
	"injectable/internal/ids"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/scenario"
	"injectable/internal/sim"
)

// World is one checked world: a single-point scenario spec plus the two
// knobs admission never accepts.
type World struct {
	// Spec describes the world. It must pass scenario.Validate and carry no
	// sweep axes (expand a sweep with scenario.Expand first).
	Spec scenario.Spec
	// Jammer adds periodic wideband noise bursts cycling over the channels.
	Jammer bool
	// BreakWidening is a fault-injection knob for self-testing the
	// invariant engine: the victim's widening is silently scaled by this
	// factor WITHOUT telling the checker — exactly the "widening bound
	// tightened below eq. 4/5" regression the engine must catch. 0 = off.
	BreakWidening float64
}

// Goal names the world's attacker goal (the spec's "" is "inject").
func (w World) Goal() string {
	if a := w.Spec.Attacker; a != nil && a.Goal != "" {
		return a.Goal
	}
	return experiments.GoalInject
}

// String renders the world as its canonical spec plus the knobs it sets.
func (w World) String() string {
	b, err := scenario.EncodeCanonical(w.Spec)
	if err != nil {
		return fmt.Sprintf("unencodable spec: %v", err)
	}
	s := string(b)
	if w.Jammer {
		s += " jammer"
	}
	if w.BreakWidening != 0 {
		s += fmt.Sprintf(" break-widening=%g", w.BreakWidening)
	}
	return s
}

// Generate draws a world from the seed's dedicated RNG stream. Equal seeds
// yield equal worlds; the stream is independent of the world's own
// simulation randomness (sim.RNG child-stream isolation). The victim,
// named after its type, sits at the origin; the central "phone" faces it
// from +x and the attacker from −x; a lightbulb "bystander" may advertise
// at (1.5, 2.5). Every sub-object is non-nil, so callers can retarget a
// generated world field by field.
func Generate(seed uint64) World {
	rng := sim.NewRNG(seed).Child("simtest-gen")
	targets := []string{"lightbulb", "keyfob", "smartwatch"}
	victim := scenario.Device{Type: targets[rng.Intn(len(targets))]}
	victim.Name = victim.Type
	atk := &scenario.Attacker{}
	switch r := rng.Float64(); {
	case r < 0.30:
		atk.Goal = experiments.GoalNone
	case r < 0.72:
		atk.Goal, atk.Payload = experiments.GoalInject, "feature"
	case r < 0.86:
		atk.Goal = experiments.GoalHijackSlave
	default:
		atk.Goal = experiments.GoalHijackMaster
	}

	conn := &scenario.Conn{Interval: 6 + rng.Intn(45)} // 7.5 .. 62.5 ms
	if rng.Bool(0.3) {
		conn.Latency = 1 + rng.Intn(4)
	}
	conn.Hop = 5 + rng.Intn(12)
	conn.CSA2 = rng.Bool(0.25)
	if rng.Bool(0.4) {
		conn.UnusedChannels = 1 + rng.Intn(8)
	}

	phone := scenario.Device{Type: "phone", Name: "phone"}
	victim.ClockPPM = 10 + 140*rng.Float64()
	phone.ClockPPM = 10 + 140*rng.Float64()
	victim.ClockJitterUS = 0.2 + 2.8*rng.Float64()
	phone.ClockJitterUS = 0.2 + 2.8*rng.Float64()
	phone.Pos = &scenario.Pos{X: 0.5 + 3.5*rng.Float64()}
	atk.Pos = &scenario.Pos{X: -(0.5 + 5.5*rng.Float64())}

	traffic := &scenario.Traffic{}
	if !rng.Bool(0.3) {
		traffic.ActivityMS = 100 + rng.Intn(900)
	}
	w := World{Spec: scenario.Spec{
		Version:  scenario.Version,
		Devices:  []scenario.Device{victim, phone},
		Conn:     conn,
		Traffic:  traffic,
		Attacker: atk,
	}}
	if rng.Bool(0.2) {
		// An unrelated advertiser sharing the band: its traffic must never
		// confuse the connection's invariants.
		w.Spec.Devices = append(w.Spec.Devices, scenario.Device{
			Type: "lightbulb", Name: "bystander", Pos: &scenario.Pos{X: 1.5, Y: 2.5},
		})
	}
	w.Jammer = rng.Bool(0.1)
	w.Spec.Defense = &scenario.Defense{IDS: rng.Bool(0.25)}
	if rng.Bool(0.15) {
		// Legitimate countermeasure worlds: the checker is told the scale,
		// so a scaled widening is NOT a violation (too small a scale may
		// break the connection, which is an outcome, not a bug).
		w.Spec.Defense.WideningScale = 0.5 + 1.5*rng.Float64()
	}
	w.Spec.Run = &scenario.Run{SimSeconds: float64(6 + rng.Intn(9))}
	return w
}

// Result is the outcome of one checked world.
type Result struct {
	Seed  uint64
	World World

	// Connected: the phone reached an established connection (worlds with
	// jammers or tight clocks may legitimately fail to connect).
	Connected bool
	// SnifferSynced: the attacker's sniffer was following the connection
	// when the attack phase started (attack goals only).
	SnifferSynced bool
	// Windows counts slave receive windows the checker inspected.
	Windows int
	// InjectTx counts attacker transmissions, Records the forensics
	// entries reconciled against them.
	InjectTx int
	Records  int
	// AttackDone/AttackSuccess: the goal's completion callback fired /
	// reported success (invariants are checked regardless).
	AttackDone    bool
	AttackSuccess bool
	// IDSAlerts counts monitor alerts by kind (IDS worlds only).
	IDSAlerts map[ids.AlertKind]int

	Violations []Violation
	Truncated  int
}

// Failed reports whether any invariant was violated.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// InjectionAlerts sums the injection-class IDS alerts (the §VIII
// detector's positive signal).
func (r Result) InjectionAlerts() int {
	return r.IDSAlerts[ids.AlertDoubleFrame] + r.IDSAlerts[ids.AlertAnchorDeviation] +
		r.IDSAlerts[ids.AlertRogueUpdate] + r.IDSAlerts[ids.AlertScheduleSplit]
}

// Fingerprint is a deterministic digest of everything observable about the
// run — two runs of the same seed must produce equal fingerprints
// regardless of worker count or host.
func (r Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d connected=%t synced=%t windows=%d injectTx=%d records=%d done=%t success=%t",
		r.Seed, r.Connected, r.SnifferSynced, r.Windows, r.InjectTx, r.Records,
		r.AttackDone, r.AttackSuccess)
	kinds := make([]string, 0, len(r.IDSAlerts))
	for k := range r.IDSAlerts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, r.IDSAlerts[ids.AlertKind(k)])
	}
	fmt.Fprintf(&b, " violations=%d+%d", len(r.Violations), r.Truncated)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n%v", v)
	}
	return b.String()
}

// liveWorld is one production trial world under the checker, with every
// piece of mutable run state in struct fields. The snapshot engine reaches
// state through fields, slices and maps — not through closure variables —
// so anything a callback mutates (the result record the goal's completion
// callback writes, the jammer's channel cursor) must hang off this struct,
// which is registered as a snapshot root. That is what lets ForkCheck roll
// a half-run world back and replay it.
type liveWorld struct {
	res Result
	// err is a goal launch that failed (reported after the run, since a
	// delayed launch fires mid-run).
	err error

	cfg experiments.TrialConfig
	tw  *experiments.TrialWorld
	ck  *Checker
	hub *obs.Hub
	jam *jammer
}

// RunWorld builds and runs one world under the invariant engine. The error
// return is construction-level only (an inadmissible spec, a failed goal
// launch); invariant breaches and failed connections are reported in the
// Result.
func RunWorld(seed uint64, w World) (Result, error) {
	lw, err := bringUp(seed, w)
	if err != nil {
		return Result{}, err
	}
	lw.tw.W.RunFor(lw.cfg.SimBudget)
	return lw.collect(), lw.err
}

// bringUp admits and lowers the spec, builds its world on the production
// path with the checker hooked into every layer, runs the 3 s handshake
// and launches the attacker goal.
func bringUp(seed uint64, w World) (*liveWorld, error) {
	if err := scenario.Validate(w.Spec, 1, scenario.DefaultLimits); err != nil {
		return nil, err
	}
	if len(w.Spec.Sweep) > 0 {
		return nil, errors.New("simtest: a world is one point; expand the sweep first")
	}
	cfg, err := scenario.TrialConfig(w.Spec)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	cfg.Seed = seed
	lw := &liveWorld{res: Result{Seed: seed, World: w}, cfg: cfg, hub: obs.NewHub()}
	// The checker must exist before the world (it is the world's tracer),
	// but needs the world's clock; close over the late-bound pointer.
	lw.ck = NewChecker(func() sim.Time { return lw.tw.W.Now() }, cfg.WideningScale)

	// BreakWidening is the fault-injection backdoor: the victim's widening
	// scale is changed behind the checker's back, which must surface as a
	// widening-eq4 violation.
	if w.BreakWidening > 0 {
		scale := cfg.WideningScale
		if scale <= 0 {
			scale = 1
		}
		cfg.WideningScale = scale * w.BreakWidening
	}
	lw.tw, err = experiments.BuildTrialWorld(cfg, experiments.Instrumentation{Tracer: lw.ck, Obs: lw.hub})
	if err != nil {
		return nil, err
	}
	tw, ck := lw.tw, lw.ck
	tw.W.Medium.AddObserver(ck)
	tw.W.Medium.SetDeliverObserver(ck.OnDeliver)
	victim := tw.Peripheral.Device.Stack.Name
	tw.Peripheral.OnConnect = func(conn *link.Conn) { ck.WatchConn(victim, conn) }
	tw.Atk.Injector.OnAttempt = func(a injectable.Attempt) { ck.CheckAttemptOutcome(string(a.Outcome)) }
	if w.Jammer {
		lw.jam = startJammer(tw.W)
	}
	tw.W.AddSnapshotRoot(lw)

	if err := tw.Connect(nil); err != nil {
		return nil, err
	}
	lw.res.Connected = tw.Phone.Central.Connected()
	if cfg.Goal == experiments.GoalNone || !lw.res.Connected || !tw.Atk.Sniffer.Following() {
		return lw, nil
	}
	lw.res.SnifferSynced = true
	if cfg.GoalDelay > 0 {
		tw.W.Sched.After(cfg.GoalDelay, "attack:launch", lw.launch)
	} else {
		lw.launch()
	}
	return lw, nil
}

// launch starts the world's attacker goal. Completion callbacks write into
// lw.res — snapshot-visible fields, so a forked world re-reports
// completion on replay.
func (lw *liveWorld) launch() {
	atk, cfg := lw.tw.Atk, lw.cfg
	done := func(success bool) {
		lw.res.AttackDone = true
		lw.res.AttackSuccess = success
	}
	var err error
	switch cfg.Goal {
	case "", experiments.GoalInject:
		var frame pdu.DataPDU
		if frame, err = lw.tw.Frame(cfg); err == nil {
			err = atk.Injector.Inject(frame, func(r injectable.Report) { done(r.Success) })
		}
	case experiments.GoalHijackSlave:
		err = atk.HijackSlave(experiments.HijackServer(), func(h *injectable.SlaveHijack, e error) {
			done(e == nil && h != nil)
		})
	case experiments.GoalHijackMaster:
		err = atk.HijackMaster(cfg.Update, func(h *injectable.MasterHijack, e error) {
			done(e == nil && h != nil)
		})
	case experiments.GoalMITM:
		err = atk.ManInTheMiddle(cfg.Update, injectable.MITMConfig{}, func(m *injectable.MITM, e error) {
			done(e == nil && m != nil)
		})
	case experiments.GoalUpdate:
		err = atk.InjectConnectionUpdate(cfg.Update, func(r injectable.Report) { done(r.Success) })
	}
	if err != nil {
		lw.err = fmt.Errorf("simtest: %s: %w", cfg.Goal, err)
	}
}

// collect reconciles the ledger and freezes the result. Everything it
// writes lives in snapshot-visible state (lw.res, the checker), so a fork
// taken before collect replays through an identical collect.
func (lw *liveWorld) collect() Result {
	lw.ck.Finish(lw.hub.Ledger)
	lw.res.Windows = lw.ck.Windows()
	lw.res.InjectTx = lw.ck.InjectTxCount()
	lw.res.Records = len(lw.hub.Ledger.Records())
	if m := lw.tw.Monitor; m != nil {
		lw.res.IDSAlerts = make(map[ids.AlertKind]int)
		for _, a := range m.Alerts() {
			lw.res.IDSAlerts[a.Kind]++
		}
	}
	lw.res.Violations = lw.ck.Violations()
	lw.res.Truncated = lw.ck.Truncated()
	return lw.res
}

// jammer emits periodic wideband noise bursts cycling across the data
// channels: 2 ms of noise every 30 ms from a dedicated raw radio. Its
// channel cursor is a struct field rather than a closure variable so that
// world snapshots capture it: each scheduled burst is the method value
// j.fire, whose only captured state is j itself (a snapshot root via
// liveWorld).
type jammer struct {
	w     *host.World
	radio *medium.Radio
	ch    phy.Channel
}

const (
	jammerBurst  = 2 * sim.Millisecond
	jammerPeriod = 30 * sim.Millisecond
)

// startJammer builds the jammer and schedules its first burst.
func startJammer(w *host.World) *jammer {
	j := &jammer{
		w: w,
		radio: w.Medium.NewRadio(medium.RadioConfig{
			Name: "jammer", Position: phy.Position{Y: -4},
		}),
	}
	w.Sched.After(jammerPeriod, "jammer:burst", j.fire)
	return j
}

// fire transmits one burst, advances the channel cursor and reschedules.
func (j *jammer) fire() {
	j.radio.SetChannel(j.ch)
	j.radio.TransmitNoise(jammerBurst)
	j.ch = phy.Channel((int(j.ch) + 7) % 37)
	j.w.Sched.After(jammerPeriod, "jammer:burst", j.fire)
}
