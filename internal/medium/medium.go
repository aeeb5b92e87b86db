// Package medium implements the shared 2.4 GHz radio medium connecting
// simulated BLE radios: frame transport, preamble/access-address lock,
// collision overlap computation and a pluggable capture model deciding
// whether a collided frame survives.
//
// The InjectaBLE race plays out entirely inside this package's rules:
//
//   - a receiver locks onto the first frame whose preamble + access address
//     it hears cleanly while listening — so an injected frame that starts
//     inside the slave's widened receive window before the legitimate
//     master's frame wins the lock (paper §V, Fig. 3);
//   - a frame whose tail collides with a later transmission survives only
//     if the capture model says so, which depends on the signal-to-
//     interference ratio at the receiver and the overlap length (paper
//     §V-D, Fig. 5 situations a/b/c).
package medium

import (
	"fmt"
	"math"

	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// lossUnset marks an empty slot in the per-radio-pair path-loss cache.
// Real losses are finite positive dB figures, so +Inf is unreachable.
var lossUnset = math.Inf(1)

// Frame is the logical content of one on-air BLE frame: everything after
// the preamble, before whitening. The CRC field carries the 24-bit CRC as
// computed by the *sender* (an attacker who sniffed the wrong CRCInit will
// naturally produce a CRC the receiver rejects).
type Frame struct {
	Mode          phy.Mode
	AccessAddress uint32
	PDU           []byte // LL header + payload
	CRC           uint32 // 24-bit, low 24 bits significant
}

// AirTime returns the on-air duration of the frame including preamble.
func (f Frame) AirTime() sim.Duration { return f.Mode.AirTime(len(f.PDU)) }

// Clone deep-copies the frame so receivers can mutate safely.
func (f Frame) Clone() Frame {
	c := f
	c.PDU = append([]byte(nil), f.PDU...)
	return c
}

// Received describes one frame delivered to a listening radio.
type Received struct {
	Frame     Frame
	Channel   phy.Channel
	RSSI      phy.DBm
	StartAt   sim.Time // on-air start of the frame (the anchor-point time)
	EndAt     sim.Time // on-air end of the frame
	Corrupted bool     // a collision mangled the frame (CRC will not match)
}

// TxObservation is what a wideband observer (e.g. the IDS of paper §VIII)
// sees: raw transmission activity, without needing to win a lock.
type TxObservation struct {
	Source  string
	Channel phy.Channel
	StartAt sim.Time
	EndAt   sim.Time
	Power   phy.DBm
	Frame   Frame
	Noise   bool // pure jamming burst, no decodable frame
}

// Observer receives every transmission start on the medium. Used by the
// IDS and by test instrumentation; protocol code must not use it.
type Observer interface {
	ObserveTx(o TxObservation)
}

// DeliverObservation is the medium's own account of one frame delivery to
// a locked receiver: which transmission completed, what interfered with it
// and which mechanism (if any) corrupted it. Test instrumentation only —
// protocol code must not use it.
type DeliverObservation struct {
	Radio   string // receiving radio
	Source  string // transmitting radio
	Channel phy.Channel
	StartAt sim.Time // on-air start of the delivered frame
	EndAt   sim.Time // on-air end (also the delivery instant)
	RSSI    phy.DBm
	// Collided: at least one other transmission overlapped the frame body.
	Collided bool
	// MinSIRdB is the worst signal-to-interference ratio over all
	// interferers (0 when not collided).
	MinSIRdB float64
	// Corrupted mirrors the Received flag handed to the radio.
	Corrupted bool
	// CaptureLost: a frame interferer won the capture-model draw.
	CaptureLost bool
	// NoiseLost: a jamming burst within noiseCaptureThresholdDB corrupted
	// the frame (deterministic, no draw involved).
	NoiseLost bool
	// FadeLost: the sensitivity-fade draw near the noise floor fired.
	FadeLost bool
}

// noiseCaptureThresholdDB is the SIR above which a frame survives
// co-channel *noise* (jamming). GFSK demodulators need roughly this
// carrier-to-noise margin; below it the burst reliably breaks the CRC.
const noiseCaptureThresholdDB = 9.0

// transmission is one in-flight signal.
type transmission struct {
	radio   *Radio
	frame   Frame
	channel phy.Channel
	start   sim.Time
	end     sim.Time
	noise   bool
}

// Config configures a Medium.
type Config struct {
	// PathLoss computes attenuation between positions. Nil means free-space
	// log-distance with exponent 2.
	PathLoss phy.PathLossModel
	// Capture decides collision survival. Nil means DefaultCaptureModel().
	Capture CaptureModel
	// Tracer receives medium-level trace events. Nil means no tracing.
	Tracer sim.Tracer
	// PreambleCaptureMargin: an interferer within this margin of the wanted
	// signal during the preamble+AA defeats the lock. Default 3 dB.
	PreambleCaptureMargin float64
	// Obs receives medium-layer metrics and forensics-ledger events.
	// Nil means no observability instrumentation.
	Obs *obs.Hub
	// Arena, when set, backs frame-PDU clone buffers so per-frame copies
	// bump-allocate instead of hitting the garbage collector. Nil means the
	// medium owns a private arena. The arena must not be Reset while any
	// frame delivered by this medium is still referenced (in practice: reset
	// only between trials).
	Arena *sim.ByteArena
}

// Medium is the shared radio channel. Create radios with NewRadio; all
// timing runs on the supplied scheduler. Not safe for concurrent use — the
// simulation is single-threaded by design.
type Medium struct {
	sched      *sim.Scheduler
	rng        *sim.RNG
	cfg        Config
	radios     []*Radio
	active     []*transmission
	observers  []Observer
	deliverObs func(DeliverObservation)
	ins        *instruments
	arena      *sim.ByteArena

	// scratch is reused by interferersDuring so the overlap scan in the
	// deliver/lock hot path does not allocate. Safe because the result is
	// always consumed before the next call (capture models are pure and
	// never re-enter the medium).
	scratch []*transmission
	// loss caches path loss per (tx radio, rx radio, channel). Path loss
	// depends only on positions and channel frequency, both of which change
	// rarely (experiment setup), while deliver/preambleClean query the same
	// pairs every connection event. Entries hold lossUnset until computed;
	// SetPosition and NewRadio invalidate.
	loss []float64
}

// New creates a medium on the given scheduler.
func New(sched *sim.Scheduler, rng *sim.RNG, cfg Config) *Medium {
	if cfg.PathLoss == nil {
		cfg.PathLoss = phy.LogDistance{}
	}
	if cfg.Capture == nil {
		cfg.Capture = DefaultCaptureModel()
	}
	if cfg.PreambleCaptureMargin == 0 {
		cfg.PreambleCaptureMargin = 3
	}
	if cfg.Arena == nil {
		cfg.Arena = sim.NewByteArena()
	}
	m := &Medium{sched: sched, rng: rng.Child("medium"), cfg: cfg, arena: cfg.Arena}
	m.ins = newInstruments(m, cfg.Obs)
	// The ledger reconstructs signal powers (e.g. the master's RSSI at
	// the victim) through the medium's own path-loss model.
	cfg.Obs.Led().SetRSSIProbe(m.probeRSSI)
	return m
}

// cloneFrame copies a frame, backing the PDU with the medium's arena.
func (m *Medium) cloneFrame(f Frame) Frame {
	c := f
	c.PDU = m.arena.Copy(f.PDU)
	return c
}

// invalidateLossCache grows the cache to the current radio count and marks
// every entry unset. Called when a radio is added or moved.
func (m *Medium) invalidateLossCache() {
	n := len(m.radios) * len(m.radios) * phy.NumChannels
	if cap(m.loss) < n {
		m.loss = make([]float64, n)
	}
	m.loss = m.loss[:n]
	for i := range m.loss {
		m.loss[i] = lossUnset
	}
}

// pathLoss returns the (cached) path loss from tx to rx on ch.
func (m *Medium) pathLoss(tx, rx *Radio, ch phy.Channel) float64 {
	idx := (tx.id*len(m.radios)+rx.id)*phy.NumChannels + int(ch)
	l := m.loss[idx]
	if l == lossUnset {
		l = float64(m.cfg.PathLoss.Loss(tx.pos, rx.pos, ch))
		m.loss[idx] = l
	}
	return l
}

// Scheduler returns the scheduler the medium runs on.
func (m *Medium) Scheduler() *sim.Scheduler { return m.sched }

// AddObserver registers a wideband observer.
func (m *Medium) AddObserver(o Observer) { m.observers = append(m.observers, o) }

// SetDeliverObserver installs a hook observing every frame delivery with
// its corruption attribution. Observation only: it never changes delivery
// outcomes or the RNG draw sequence. Nil uninstalls.
func (m *Medium) SetDeliverObserver(fn func(DeliverObservation)) { m.deliverObs = fn }

// Now returns the current simulation time.
func (m *Medium) Now() sim.Time { return m.sched.Now() }

// rssiAt returns the received power of t at radio r on t's channel. Only
// the path loss is cached, so SetTxPower takes effect immediately.
func (m *Medium) rssiAt(t *transmission, r *Radio) phy.DBm {
	return t.radio.txPower - phy.DBm(m.pathLoss(t.radio, r, t.channel))
}

// pruneActive drops transmissions that ended before now.
func (m *Medium) pruneActive() {
	now := m.sched.Now()
	kept := m.active[:0]
	for _, t := range m.active {
		if t.end > now {
			kept = append(kept, t)
		}
	}
	m.active = kept
}

// overlap returns the overlap duration of [a1,a2] and [b1,b2].
func overlap(a1, a2, b1, b2 sim.Time) sim.Duration {
	lo, hi := a1, a2
	if b1 > lo {
		lo = b1
	}
	if b2 < hi {
		hi = b2
	}
	if hi <= lo {
		return 0
	}
	return hi.Sub(lo)
}

// begin registers a transmission and notifies listeners and observers.
func (m *Medium) begin(t *transmission) {
	m.pruneActive()
	m.active = append(m.active, t)

	obs := TxObservation{
		Source:  t.radio.name,
		Channel: t.channel,
		StartAt: t.start,
		EndAt:   t.end,
		Power:   t.radio.txPower,
		Frame:   t.frame,
		Noise:   t.noise,
	}
	for _, o := range m.observers {
		o.ObserveTx(obs)
	}
	sim.Emit(m.cfg.Tracer, t.start, t.radio.name, "tx-start", func() []sim.Field {
		return []sim.Field{
			sim.F("ch", t.channel), sim.F("len", len(t.frame.PDU)),
			sim.F("end", t.end), sim.F("noise", t.noise),
		}
	})
	m.ins.onTxBegin(t)

	if t.noise {
		return // jamming carries no lockable preamble
	}
	lockAt := t.start.Add(t.frame.Mode.PreambleAATime())
	for _, r := range m.radios {
		if r == t.radio {
			continue
		}
		r.maybeScheduleLock(t, lockAt)
	}
}

// interferersDuring returns active transmissions (other than want) on ch
// overlapping [from, to]. The returned slice aliases the medium's scratch
// buffer and is only valid until the next call.
func (m *Medium) interferersDuring(want *transmission, ch phy.Channel, from, to sim.Time) []*transmission {
	out := m.scratch[:0]
	for _, t := range m.active {
		if t == want || t.channel != ch {
			continue
		}
		if overlap(from, to, t.start, t.end) > 0 {
			out = append(out, t)
		}
	}
	m.scratch = out
	return out
}

// preambleClean reports whether the preamble+AA of tx is decodable at
// radio r. Two regions behave differently:
//
//   - the acquisition region (the preamble itself): a comparable-power
//     interferer here defeats carrier acquisition deterministically;
//   - the access-address region: the correlator has already acquired the
//     earlier carrier, so a later-starting interferer is ordinary
//     co-channel interference — survival follows the capture model. This
//     is why the slave still locks onto an injected frame whose tail the
//     legitimate master tramples (paper §V-D situation b).
func (m *Medium) preambleClean(t *transmission, r *Radio) bool {
	want := m.rssiAt(t, r)
	preambleEnd := t.start.Add(preambleDuration(t.frame.Mode))
	aaEnd := t.start.Add(t.frame.Mode.PreambleAATime())
	for _, i := range m.interferersDuring(t, t.channel, t.start, aaEnd) {
		if i.radio == r {
			return false // receiver was itself transmitting over the preamble
		}
		sir := float64(want) - float64(m.rssiAt(i, r))
		if overlap(t.start, preambleEnd, i.start, i.end) > 0 {
			if sir < m.cfg.PreambleCaptureMargin {
				return false
			}
			continue
		}
		ov := overlap(preambleEnd, aaEnd, i.start, i.end)
		if ov > 0 && !m.cfg.Capture.Survives(m.rng, sir, ov) {
			return false
		}
	}
	return true
}

// preambleDuration returns the length of the raw preamble (the carrier
// acquisition region) for a PHY mode.
func preambleDuration(mode phy.Mode) sim.Duration {
	switch mode {
	case phy.LE1M, phy.LE2M:
		return sim.Duration(mode.PreambleBytes()*8) * mode.BitDuration()
	default:
		return sim.Microseconds(80)
	}
}

// deliver completes reception of t at r, applying the collision model.
//
// The frame is cloned lazily: the collision and fade decisions only need
// powers and lengths, so the PDU copy happens once the outcome is known —
// and not at all when no consumer (r.OnFrame) is attached. Every RNG draw
// is consumed regardless, keeping the draw sequence — and therefore every
// seeded experiment table — independent of who is listening.
func (m *Medium) deliver(t *transmission, r *Radio) {
	rx := Received{
		Frame:   t.frame, // shared until cloned below
		Channel: t.channel,
		RSSI:    m.rssiAt(t, r),
		StartAt: t.start,
		EndAt:   t.end,
	}
	// Collision survival: each interferer overlapping the locked frame
	// independently threatens it. Overlap is evaluated against the
	// post-preamble body (the preamble was verified clean at lock time).
	bodyStart := t.start.Add(t.frame.Mode.PreambleAATime())
	collided, minSIR := false, math.Inf(1)
	captureLost, noiseLost, fadeLost := false, false, false
	for _, i := range m.interferersDuring(t, t.channel, bodyStart, t.end) {
		i := i
		ov := overlap(bodyStart, t.end, i.start, i.end)
		sir := float64(rx.RSSI) - float64(m.rssiAt(i, r))
		collided = true
		if sir < minSIR {
			minSIR = sir
		}
		if i.noise {
			// Wideband noise has no carrier to lose a phase race against:
			// it erodes demodulation margin directly, so anything below a
			// solid capture margin is corrupted.
			if sir < noiseCaptureThresholdDB {
				rx.Corrupted = true
				noiseLost = true
			}
		} else if !m.cfg.Capture.Survives(m.rng, sir, ov) {
			rx.Corrupted = true
			captureLost = true
		}
		corrupted := rx.Corrupted
		sim.Emit(m.cfg.Tracer, t.end, r.name, "collision", func() []sim.Field {
			return []sim.Field{
				sim.F("with", i.radio.name), sim.F("overlap", ov),
				sim.F("sir", fmt.Sprintf("%.1f", sir)), sim.F("corrupted", corrupted),
			}
		})
	}
	// Sensitivity fade: frames close to the noise floor occasionally drop.
	snr := float64(rx.RSSI) - float64(phy.NoiseFloor)
	if lossP := frameLossFromSNR(snr, len(t.frame.PDU)); lossP > 0 && m.rng.Bool(lossP) {
		rx.Corrupted = true
		fadeLost = true
	}
	if rx.Corrupted {
		// Draw the corruption pattern unconditionally — the RNG stream must
		// advance identically whether or not anyone consumes the frame.
		flips, bits, mask := m.corruptDraws(len(t.frame.PDU))
		if r.OnFrame != nil {
			rx.Frame = m.cloneFrame(t.frame)
			applyCorruption(&rx.Frame, flips, bits, mask)
		}
	} else if r.OnFrame != nil {
		rx.Frame = m.cloneFrame(t.frame)
	}
	sim.Emit(m.cfg.Tracer, t.end, r.name, "rx", func() []sim.Field {
		return []sim.Field{
			sim.F("ch", t.channel), sim.F("len", len(rx.Frame.PDU)),
			sim.F("rssi", rx.RSSI), sim.F("corrupted", rx.Corrupted),
			sim.F("start", t.start),
		}
	})
	if !collided {
		minSIR = 0
	}
	m.ins.onDeliver(r, t, &rx, collided, minSIR)
	if m.deliverObs != nil {
		m.deliverObs(DeliverObservation{
			Radio: r.name, Source: t.radio.name, Channel: t.channel,
			StartAt: t.start, EndAt: t.end, RSSI: rx.RSSI,
			Collided: collided, MinSIRdB: minSIR, Corrupted: rx.Corrupted,
			CaptureLost: captureLost, NoiseLost: noiseLost, FadeLost: fadeLost,
		})
	}
	r.completeRx(rx)
}

// frameLossFromSNR returns a frame-loss probability for a frame of n bytes
// at the given SNR in dB. Above ~12 dB SNR loss is negligible; below the
// sensitivity margin it climbs steeply.
func frameLossFromSNR(snrDB float64, n int) float64 {
	// The receiver sensitivity is defined at ~10 dB SNR for 0.1% BER.
	margin := snrDB - 10
	if margin > 6 {
		return 0
	}
	ber := 0.001 * math.Pow(10, -margin/3)
	if ber > 0.5 {
		ber = 0.5
	}
	bits := float64(8 * (n + 4 + 3)) // AA + PDU + CRC
	loss := 1 - math.Pow(1-ber, bits)
	if loss < 1e-9 {
		return 0
	}
	return loss
}

// corruptDraws consumes the RNG draws for one frame corruption: up to four
// payload bit positions and a CRC perturbation mask. Split from the
// application so deliver can keep the RNG stream identical even when no
// receiver consumes the frame (and the clone is skipped).
func (m *Medium) corruptDraws(pduLen int) (flips int, bits [4]int, mask uint32) {
	if pduLen > 0 {
		flips = 1 + m.rng.Intn(4)
		for i := 0; i < flips; i++ {
			bits[i] = m.rng.Intn(pduLen * 8)
		}
	}
	mask = uint32(1+m.rng.Intn(0xFFFFFF)) & 0xFFFFFF
	return flips, bits, mask
}

// applyCorruption mangles the frame so the upper layer's CRC check fails:
// flips the drawn payload bits and perturbs the transported CRC.
func applyCorruption(f *Frame, flips int, bits [4]int, mask uint32) {
	for i := 0; i < flips; i++ {
		f.PDU[bits[i]/8] ^= 1 << (bits[i] % 8)
	}
	f.CRC ^= mask
}
