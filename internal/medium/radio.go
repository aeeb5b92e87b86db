package medium

import (
	"fmt"
	"slices"

	"injectable/internal/phy"
	"injectable/internal/sim"
)

// radioState tracks what the half-duplex radio is doing.
type radioState int

const (
	radioIdle radioState = iota + 1
	radioListening
	radioLocked
	radioTransmitting
)

// RadioConfig configures a Radio.
type RadioConfig struct {
	// Name identifies the radio in traces (e.g. "master", "attacker").
	Name string
	// Position of the antenna in the floor plan.
	Position phy.Position
	// TxPower in dBm; zero value means phy.DefaultTxPower. Use SetTxPower
	// for explicit 0 dBm (which equals the default anyway).
	TxPower phy.DBm
	// Sensitivity in dBm; zero value means phy.DefaultSensitivity.
	Sensitivity phy.DBm
	// Mode is the PHY in use; zero value means LE 1M.
	Mode phy.Mode
}

// Radio is one half-duplex BLE radio attached to a Medium. All methods must
// be called from simulation callbacks (single-threaded).
//
// The receive path mirrors real BLE silicon: the radio is tuned to one
// channel with an access-address correlator; while listening it locks onto
// the first frame whose preamble + access address it decodes cleanly, then
// delivers the whole frame (possibly corrupted by a collision) to OnFrame.
// A promiscuous radio locks on any access address — that is the attacker's
// and the IDS's sniffing mode.
type Radio struct {
	name        string
	med         *Medium
	id          int // index into Medium.radios; keys the path-loss cache
	pos         phy.Position
	txPower     phy.DBm
	sensitivity phy.DBm
	mode        phy.Mode

	// Scheduler labels are hot-path strings; concatenating them per event
	// allocates, so they are built once here.
	lockLabel       string
	txEndLabel      string
	noiseEndLabel   string
	rxCompleteLabel string

	channel     phy.Channel
	aaFilter    uint32
	promiscuous bool

	state  radioState
	locked *transmission
	txEnd  sim.EventRef
	// pending holds the lock attempts in flight, in arming order. It is
	// almost always empty and never longer than the frames overlapping
	// one preamble, so a slice beats a map on every transmit and stop.
	pending []pendingLock

	// Callbacks bound once, so a transmission allocates no closure: the
	// per-transmission handlers take their *transmission as the AtArg
	// argument.
	endTxFn      func()
	lockFn       func(any)
	rxCompleteFn func(any)

	// OnFrame is called when a locked frame completes, even if corrupted.
	OnFrame func(rx Received)
	// OnTxDone is called when this radio's own transmission ends.
	OnTxDone func()
}

// pendingLock is one lock attempt armed for transmission t.
type pendingLock struct {
	t  *transmission
	ev sim.EventRef
}

// NewRadio creates a radio and attaches it to the medium.
func (m *Medium) NewRadio(cfg RadioConfig) *Radio {
	if cfg.TxPower == 0 {
		cfg.TxPower = phy.DefaultTxPower
	}
	if cfg.Sensitivity == 0 {
		cfg.Sensitivity = phy.DefaultSensitivity
	}
	if cfg.Mode == 0 {
		cfg.Mode = phy.LE1M
	}
	r := &Radio{
		name:            cfg.Name,
		med:             m,
		id:              len(m.radios),
		pos:             cfg.Position,
		txPower:         cfg.TxPower,
		sensitivity:     cfg.Sensitivity,
		mode:            cfg.Mode,
		lockLabel:       cfg.Name + ":lock",
		txEndLabel:      cfg.Name + ":tx-end",
		noiseEndLabel:   cfg.Name + ":noise-end",
		rxCompleteLabel: cfg.Name + ":rx-complete",
		state:           radioIdle,
	}
	r.endTxFn = r.endTx
	r.lockFn = r.lockAttempt
	r.rxCompleteFn = r.rxComplete
	m.radios = append(m.radios, r)
	m.invalidateLossCache()
	return r
}

// Name returns the radio's trace name.
func (r *Radio) Name() string { return r.name }

// Position returns the antenna position.
func (r *Radio) Position() phy.Position { return r.pos }

// SetPosition moves the radio (the experiment harness repositions the
// attacker between runs). Moving invalidates the medium's path-loss cache.
func (r *Radio) SetPosition(p phy.Position) {
	r.pos = p
	r.med.invalidateLossCache()
}

// TxPower returns the transmit power.
func (r *Radio) TxPower() phy.DBm { return r.txPower }

// SetTxPower changes the transmit power.
func (r *Radio) SetTxPower(p phy.DBm) { r.txPower = p }

// Mode returns the radio's PHY mode.
func (r *Radio) Mode() phy.Mode { return r.mode }

// Channel returns the tuned channel.
func (r *Radio) Channel() phy.Channel { return r.channel }

// SetChannel retunes the radio. Retuning aborts any in-progress lock
// attempts and reception (as on real hardware).
func (r *Radio) SetChannel(ch phy.Channel) {
	if ch == r.channel {
		return
	}
	r.channel = ch
	r.abortReceive()
}

// SetAccessAddress programs the AA correlator.
func (r *Radio) SetAccessAddress(aa uint32) {
	r.aaFilter = aa
}

// AccessAddress returns the programmed correlator value.
func (r *Radio) AccessAddress() uint32 { return r.aaFilter }

// SetPromiscuous toggles matching any access address.
func (r *Radio) SetPromiscuous(p bool) { r.promiscuous = p }

// Listening reports whether the radio is listening or locked on a frame.
func (r *Radio) Listening() bool { return r.state == radioListening || r.state == radioLocked }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.state == radioTransmitting }

// Locked reports whether the radio is currently locked onto an incoming
// frame (reception in progress).
func (r *Radio) Locked() bool { return r.state == radioLocked }

// Acquiring reports whether a frame's preamble is currently arriving (a
// lock attempt is pending). Receive-window close logic uses this to honour
// the spec rule that only the packet *start* must fall inside the window.
func (r *Radio) Acquiring() bool { return len(r.pending) > 0 }

// StartListening opens the receiver on the current channel. Frames already
// mid-air are not receivable (their preamble has passed) — which is exactly
// why an attacker transmitting before the slave's receive window opens
// fails to inject.
func (r *Radio) StartListening() {
	switch r.state {
	case radioTransmitting:
		panic(fmt.Sprintf("medium: %s: StartListening while transmitting", r.name))
	case radioListening, radioLocked:
		return
	default:
		r.state = radioListening
	}
}

// StopListening closes the receiver. If a frame lock is in progress the
// reception completes anyway (real receivers finish the frame they are on;
// the spec's window widening only constrains the *start* of the packet).
func (r *Radio) StopListening() {
	if r.state == radioListening {
		r.state = radioIdle
		r.cancelPendingLocks()
	}
}

// abortReceive hard-stops listening and any locked reception.
func (r *Radio) abortReceive() {
	r.cancelPendingLocks()
	if r.state == radioListening || r.state == radioLocked {
		r.state = radioIdle
		r.locked = nil
	}
}

func (r *Radio) cancelPendingLocks() {
	for _, p := range r.pending {
		r.med.sched.Cancel(p.ev)
	}
	clear(r.pending)
	r.pending = r.pending[:0]
}

// Transmit sends a frame starting now. The radio must not already be
// transmitting; listening is implicitly stopped (half duplex).
func (r *Radio) Transmit(f Frame) {
	if r.state == radioTransmitting {
		panic(fmt.Sprintf("medium: %s: Transmit while transmitting", r.name))
	}
	r.abortReceive()
	f = r.med.cloneFrame(f)
	f.Mode = r.mode
	now := r.med.sched.Now()
	t := r.med.newTransmission()
	*t = transmission{
		radio:   r,
		frame:   f,
		channel: r.channel,
		start:   now,
		end:     now.Add(f.AirTime()),
	}
	r.state = radioTransmitting
	r.med.begin(t)
	r.txEnd = r.med.sched.At(t.end, r.txEndLabel, r.endTxFn)
}

// endTx ends the radio's own transmission, frame or noise burst.
func (r *Radio) endTx() {
	r.state = radioIdle
	if r.OnTxDone != nil {
		r.OnTxDone()
	}
}

// TransmitNoise emits an unmodulated jamming burst for the given duration
// on the current channel (the BTLEJack-style baseline uses this).
func (r *Radio) TransmitNoise(d sim.Duration) {
	if r.state == radioTransmitting {
		panic(fmt.Sprintf("medium: %s: TransmitNoise while transmitting", r.name))
	}
	r.abortReceive()
	now := r.med.sched.Now()
	t := r.med.newTransmission()
	*t = transmission{
		radio:   r,
		channel: r.channel,
		start:   now,
		end:     now.Add(d),
		noise:   true,
	}
	r.state = radioTransmitting
	r.med.begin(t)
	r.txEnd = r.med.sched.At(t.end, r.noiseEndLabel, r.endTxFn)
}

// maybeScheduleLock is called by the medium when transmission t starts:
// if this radio could decode t's preamble it schedules a lock attempt at
// the end of the preamble + access address.
func (r *Radio) maybeScheduleLock(t *transmission, lockAt sim.Time) {
	if r.state != radioListening {
		return
	}
	if t.channel != r.channel {
		return
	}
	if float64(r.med.rssiAt(t, r)) < float64(r.sensitivity) {
		return
	}
	if !r.promiscuous && t.frame.AccessAddress != r.aaFilter {
		return
	}
	ev := r.med.sched.AtArg(lockAt, r.lockLabel, r.lockFn, t)
	r.pending = append(r.pending, pendingLock{t: t, ev: ev})
}

// lockAttempt runs the lock attempt armed for arg's transmission: it
// leaves the pending list, then tries to lock.
func (r *Radio) lockAttempt(arg any) {
	t := arg.(*transmission)
	r.pending = slices.DeleteFunc(r.pending, func(p pendingLock) bool { return p.t == t })
	r.tryLock(t)
}

// tryLock attempts to lock onto t once its preamble+AA has fully arrived.
func (r *Radio) tryLock(t *transmission) {
	if r.state != radioListening {
		return // lost the race to another frame, stopped, or transmitting
	}
	if r.channel != t.channel {
		return
	}
	if !r.med.preambleClean(t, r) {
		sim.Emit(r.med.cfg.Tracer, r.med.sched.Now(), r.name, "lock-fail", func() []sim.Field {
			return []sim.Field{sim.F("from", t.radio.name), sim.F("reason", "preamble-collision")}
		})
		r.med.ins.onLockFail(r, t, "preamble-collision")
		return
	}
	r.state = radioLocked
	r.locked = t
	r.cancelPendingLocks()
	sim.Emit(r.med.cfg.Tracer, r.med.sched.Now(), r.name, "lock", func() []sim.Field {
		return []sim.Field{sim.F("from", t.radio.name), sim.F("ch", t.channel), sim.F("start", t.start)}
	})
	r.med.ins.onLock(r, t)
	r.med.sched.AtArg(t.end, r.rxCompleteLabel, r.rxCompleteFn, t)
}

// rxComplete ends the reception of arg's transmission at its last bit.
func (r *Radio) rxComplete(arg any) {
	t := arg.(*transmission)
	if r.locked != t {
		return // channel change or transmit aborted the reception
	}
	r.locked = nil
	r.state = radioIdle
	r.med.deliver(t, r)
}

// completeRx hands the finished frame to the owner.
func (r *Radio) completeRx(rx Received) {
	if r.OnFrame != nil {
		r.OnFrame(rx)
	}
}

// RSSIFrom returns the received power at this radio for a hypothetical
// transmission from other on channel ch — used by experiment setup code to
// report link budgets, not by protocol logic.
func (r *Radio) RSSIFrom(other *Radio, ch phy.Channel) phy.DBm {
	return phy.ReceivedPower(r.med.cfg.PathLoss, other.txPower, other.pos, r.pos, ch)
}
