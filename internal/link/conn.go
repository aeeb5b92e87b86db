package link

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/csa"
	"injectable/internal/ble/pdu"
	"injectable/internal/llcrypt"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// Role is the device's role in a connection.
type Role int

// Connection roles. The spec's Master/Central initiates and times the
// connection; the Slave/Peripheral follows its anchor points.
const (
	RoleMaster Role = iota + 1
	RoleSlave
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleMaster {
		return "master"
	}
	return "slave"
}

// EventInfo describes one connection event, for instrumentation.
type EventInfo struct {
	Counter uint16
	Channel uint8
	Anchor  sim.Time
	Missed  bool // slave only: no master frame seen in the receive window
}

// WindowKind says which flavour of receive window a slave opened.
type WindowKind int

// Receive-window kinds.
const (
	// WindowInitial: the widened transmit window after CONNECT_REQ (eq. 1).
	WindowInitial WindowKind = iota + 1
	// WindowUpdate: the widened transmit window at a connection-update
	// instant (paper Fig. 2).
	WindowUpdate
	// WindowSteady: the steady-state window around the predicted anchor
	// (eq. 2/3), half-width per eq. 4/5.
	WindowSteady
)

// String implements fmt.Stringer.
func (k WindowKind) String() string {
	switch k {
	case WindowInitial:
		return "initial"
	case WindowUpdate:
		return "update"
	default:
		return "steady"
	}
}

// WindowInfo describes one slave receive window as it opens, carrying the
// exact inputs of the widening computation (eq. 4/5) so external checkers
// can recompute it independently.
type WindowInfo struct {
	Kind    WindowKind
	Event   uint16 // connection event counter of this window
	Channel uint8
	OpenAt  sim.Time     // when the radio started listening
	Width   sim.Duration // total listening duration scheduled
	// Span is the time between the last timing reference (anchor or
	// CONNECT_REQ end) and the predicted packet start — the
	// sinceLastAnchor term of eq. 4, stretched by missed events per eq. 5.
	Span sim.Duration
	// Widening is the half-window widening actually applied, after the
	// stack's countermeasure scale.
	Widening sim.Duration
	// TxWinSize is the master's transmit-window size (initial/update
	// windows only; zero for steady-state windows).
	TxWinSize sim.Duration
	// MasterPPM and SlavePPM are the two sleep-clock accuracies the
	// widening was computed from (SCA_M worst case, own rated SCA_S).
	MasterPPM, SlavePPM float64
}

// encState tracks the LL encryption-start procedure.
type encState int

const (
	encOff encState = iota
	// encMasterWaitRsp: master sent LL_ENC_REQ, awaiting LL_ENC_RSP.
	encMasterWaitRsp
	// encMasterWaitStartReq: master got LL_ENC_RSP, awaiting LL_START_ENC_REQ.
	encMasterWaitStartReq
	// encMasterWaitStartRsp: master enabled encryption both ways and sent
	// LL_START_ENC_RSP, awaiting the slave's encrypted LL_START_ENC_RSP.
	encMasterWaitStartRsp
	// encSlaveWaitStartRsp: slave sent LL_START_ENC_REQ; RX decryption is
	// on, TX still plaintext, awaiting master's LL_START_ENC_RSP.
	encSlaveWaitStartRsp
	// encOn: encryption active both directions.
	encOn
)

// Conn is one end of an established BLE connection.
type Conn struct {
	stack    *Stack
	role     Role
	params   ConnParams
	peer     ble.Address
	selector csa.Selector
	ins      *connInstruments

	eventCount  uint16
	sn, nesn    bool
	lastAnchor  sim.Time
	anchorKnown bool // false until the slave has seen its first master frame

	// missedEvents counts events since the last observed anchor (slave):
	// feeds the window-widening span per eq. 4.
	missedEvents uint16

	txQueue []pdu.DataPDU
	// inFlight is the marshaled unacknowledged frame (ciphertext if
	// encrypted); its PDU is nil when nothing awaits acknowledgement.
	inFlight medium.Frame
	// txBuf backs every frame this end marshals. Radio.Transmit copies the
	// PDU it sends, and only a retransmission (inFlight) is sent from the
	// buffer again, so each new frame can overwrite the last.
	txBuf []byte

	pendingUpdate *pdu.ConnectionUpdateInd
	pendingChMap  *pdu.ChannelMapInd
	terminating   bool // we sent/queued LL_TERMINATE_IND
	// pendingClose defers a remote-terminate close until we have
	// acknowledged the LL_TERMINATE_IND (the peer waits for the ack).
	pendingClose *DisconnectReason

	encSt   encState
	session *llcrypt.Session
	encReq  pdu.EncReq
	encRsp  pdu.EncRsp
	ltk     [16]byte

	lastValidRx sim.Time
	closed      bool

	timers []sim.EventRef

	// master per-event state
	awaitingResponse bool

	// winEpoch invalidates stale slave window-close timers: it bumps when
	// a window opens and when a frame arrives in it. winClose is the
	// close timer last armed, in epoch winCloseEpoch; arming the next one
	// cancels it, so a close that runs acts only if the epoch has not
	// moved since it was armed.
	winEpoch      uint64
	winClose      sim.EventRef
	winCloseEpoch uint64

	// pendingWindow carries the widening inputs from the scheduling site
	// to slaveOpenWindow, where OnWindow fires with them; winWidth is how
	// long that window listens.
	pendingWindow WindowInfo
	winWidth      sim.Duration

	// response is the frame the slave's pending response timer sends.
	response medium.Frame

	// Callbacks bound once in newConn, so a connection event allocates
	// none. Master: anchor (masterEvent, or masterEventBody when the
	// anchor is already placed), tx-done and no-response. Slave: window
	// open and close, response and tx-done.
	masterEventFn, masterBodyFn, masterTxDoneFn, noResponseFn func()
	winOpenFn, winCloseFn, respondFn, slaveTxDoneFn           func()

	// OnData receives CRC-valid, decrypted, non-control data PDUs carrying
	// new data (SN-deduplicated).
	OnData func(p pdu.DataPDU)
	// OnControl observes control PDUs after internal processing.
	OnControl func(c pdu.Control)
	// OnDisconnect fires once when the connection ends.
	OnDisconnect func(r DisconnectReason)
	// OnEncryptionChange fires when LL encryption turns on.
	OnEncryptionChange func(enabled bool)
	// OnLTKRequest is consulted on the slave when LL_ENC_REQ arrives.
	OnLTKRequest func(rand [8]byte, ediv uint16) ([16]byte, bool)
	// OnEvent observes every connection event (instrumentation).
	OnEvent func(e EventInfo)
	// OnWindow observes every slave receive window as it opens, with the
	// widening-computation inputs (instrumentation / invariant checking).
	OnWindow func(w WindowInfo)
}

// newConn wires the common parts of both roles.
func newConn(stack *Stack, role Role, params ConnParams, peer ble.Address) (*Conn, error) {
	sel, err := newSelector(params)
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	c := &Conn{
		stack:    stack,
		role:     role,
		params:   params,
		peer:     peer,
		selector: sel,
		ins:      newConnInstruments(stack),
	}
	c.masterEventFn = c.masterEvent
	c.masterBodyFn = c.masterEventBody
	c.masterTxDoneFn = c.masterTxDone
	c.noResponseFn = c.noResponse
	c.winOpenFn = c.slaveOpenWindow
	c.winCloseFn = c.slaveWindowClose
	c.respondFn = c.respond
	c.slaveTxDoneFn = c.slaveTxDone
	stack.Radio.SetAccessAddress(uint32(params.AccessAddress))
	stack.Radio.OnFrame = c.onFrame
	c.lastValidRx = stack.Sched.Now()
	return c, nil
}

// Params returns the connection parameters currently in force.
func (c *Conn) Params() ConnParams { return c.params }

// Role returns this end's role.
func (c *Conn) Role() Role { return c.role }

// Peer returns the remote device address.
func (c *Conn) Peer() ble.Address { return c.peer }

// EventCounter returns the upcoming connection event counter.
func (c *Conn) EventCounter() uint16 { return c.eventCount }

// Encrypted reports whether LL encryption is fully established.
func (c *Conn) Encrypted() bool { return c.encSt == encOn }

// Closed reports whether the connection has ended.
func (c *Conn) Closed() bool { return c.closed }

// SequenceState returns the current (SN, NESN) counters — what an attacker
// sniffs to forge eq. 6 of the paper.
func (c *Conn) SequenceState() (sn, nesn bool) { return c.sn, c.nesn }

// MissedEvents returns the number of events since the last observed anchor
// (slave only) — the multiplier of the eq. 5 widening span.
func (c *Conn) MissedEvents() uint16 { return c.missedEvents }

// AnchorKnown reports whether the slave has adopted its first anchor.
func (c *Conn) AnchorKnown() bool { return c.anchorKnown }

// LastAnchor returns the last timing reference (anchor point, or the
// CONNECT_REQ end before the first anchor).
func (c *Conn) LastAnchor() sim.Time { return c.lastAnchor }

// Stack returns the stack this connection runs on.
func (c *Conn) Stack() *Stack { return c.stack }

// EncryptionCounters returns the LL encryption session's per-direction
// packet counters. ok is false before a session exists.
func (c *Conn) EncryptionCounters() (m2s, s2m uint64, ok bool) {
	if c.session == nil {
		return 0, 0, false
	}
	m2s, s2m = c.session.Counters()
	return m2s, s2m, true
}

// Send queues an L2CAP fragment for transmission.
func (c *Conn) Send(llid pdu.LLID, payload []byte) {
	if c.closed {
		return
	}
	c.txQueue = append(c.txQueue, pdu.DataPDU{
		Header:  pdu.DataHeader{LLID: llid},
		Payload: append([]byte(nil), payload...),
	})
}

// SendControl queues an LL control PDU.
func (c *Conn) SendControl(ctrl pdu.Control) {
	if c.closed {
		return
	}
	c.txQueue = append(c.txQueue, pdu.DataPDU{
		Header:  pdu.DataHeader{LLID: pdu.LLIDControl},
		Payload: pdu.MarshalControl(ctrl),
	})
}

// Terminate requests a graceful local termination: an LL_TERMINATE_IND is
// queued and the connection closes once it has been sent.
func (c *Conn) Terminate() {
	if c.closed || c.terminating {
		return
	}
	c.terminating = true
	c.SendControl(pdu.TerminateInd{ErrorCode: pdu.ErrCodeRemoteUserTerminated})
}

// RequestConnectionUpdate (master only) starts the connection-update
// procedure at an instant ≥ 6 events ahead, per spec.
func (c *Conn) RequestConnectionUpdate(winSize uint8, winOffset, interval, latency, timeout uint16) error {
	if c.role != RoleMaster {
		return fmt.Errorf("link: connection update is master-initiated")
	}
	if c.pendingUpdate != nil {
		return fmt.Errorf("link: connection update already pending")
	}
	upd := &pdu.ConnectionUpdateInd{
		WinSize:   winSize,
		WinOffset: winOffset,
		Interval:  interval,
		Latency:   latency,
		Timeout:   timeout,
		Instant:   c.eventCount + 6,
	}
	c.pendingUpdate = upd
	c.SendControl(*upd)
	return nil
}

// RequestChannelMapUpdate (master only) blacklists channels at a future
// instant.
func (c *Conn) RequestChannelMapUpdate(m ble.ChannelMap) error {
	if c.role != RoleMaster {
		return fmt.Errorf("link: channel map update is master-initiated")
	}
	if !m.Valid() {
		return fmt.Errorf("link: invalid channel map")
	}
	if c.pendingChMap != nil {
		return fmt.Errorf("link: channel map update already pending")
	}
	upd := &pdu.ChannelMapInd{ChannelMap: m, Instant: c.eventCount + 6}
	c.pendingChMap = upd
	c.SendControl(*upd)
	return nil
}

// StartEncryption (master only) runs the LL encryption-start procedure
// with the given long-term key material.
func (c *Conn) StartEncryption(ltk [16]byte, rand [8]byte, ediv uint16) error {
	if c.role != RoleMaster {
		return fmt.Errorf("link: encryption start is master-initiated")
	}
	if c.encSt != encOff {
		return fmt.Errorf("link: encryption already in progress")
	}
	var req pdu.EncReq
	req.Rand = rand
	req.EDIV = ediv
	c.stack.RNG.Bytes(req.SKDm[:])
	c.stack.RNG.Bytes(req.IVm[:])
	c.encReq = req
	c.ltk = ltk
	c.encSt = encMasterWaitRsp
	c.SendControl(req)
	return nil
}

// close tears the connection down and reports the reason once.
func (c *Conn) close(reason DisconnectReason) {
	if c.closed {
		return
	}
	c.closed = true
	for _, t := range c.timers {
		c.stack.Sched.Cancel(t)
	}
	c.timers = nil
	c.stack.Radio.StopListening()
	c.stack.Radio.OnFrame = nil
	c.stack.Radio.OnTxDone = nil
	c.stack.trace("disconnect", func() []sim.Field {
		return []sim.Field{sim.F("reason", reason.String()), sim.F("role", c.role.String())}
	})
	if c.OnDisconnect != nil {
		c.OnDisconnect(reason)
	}
}

// schedule registers a cancellable timer d from now.
func (c *Conn) schedule(d sim.Duration, label string, fn func()) {
	c.timers = appendPending(c.timers, c.stack.Sched.After(d, label, fn))
}

// scheduleAt registers a cancellable timer at an absolute time.
func (c *Conn) scheduleAt(t sim.Time, label string, fn func()) {
	now := c.stack.Sched.Now()
	if t < now {
		t = now
	}
	c.timers = appendPending(c.timers, c.stack.Sched.At(t, label, fn))
}

// scheduleLocal registers a cancellable timer d after base, as measured
// by the stack's sleep clock.
func (c *Conn) scheduleLocal(base sim.Time, d sim.Duration, label string, fn func()) {
	c.timers = appendPending(c.timers, c.stack.Clock.AtLocalOffset(base, d, label, fn))
}

// supervisionExpired checks the supervision timeout.
func (c *Conn) supervisionExpired() bool {
	return c.stack.Sched.Now().Sub(c.lastValidRx) > c.params.SupervisionTimeout()
}

// nextPDU picks the PDU for the next transmission opportunity, applying
// SN/NESN and encrypting if needed. It returns the ready-to-send frame.
func (c *Conn) nextPDU() medium.Frame {
	if c.inFlight.PDU != nil {
		// Retransmission: identical bytes (same SN, same ciphertext).
		c.ins.onRetransmission()
		return c.inFlight
	}
	var p pdu.DataPDU
	if len(c.txQueue) > 0 {
		p = c.txQueue[0]
		c.txQueue = c.txQueue[1:]
	} else {
		p = pdu.Empty(false, false)
	}
	p.Header.SN = c.sn
	p.Header.NESN = c.nesn
	p.Header.MD = len(c.txQueue) > 0
	frame := c.marshalPDU(p)
	if len(p.Payload) > 0 {
		// Only non-empty PDUs need acknowledgement tracking for
		// retransmission; empty PDUs are regenerated each event.
		c.inFlight = frame
	}
	return frame
}

// marshalPDU renders and (if encryption is on for TX) encrypts a PDU into
// the connection's transmit buffer.
func (c *Conn) marshalPDU(p pdu.DataPDU) medium.Frame {
	if c.txEncrypted() && len(p.Payload) > 0 {
		dir := llcrypt.MasterToSlave
		if c.role == RoleSlave {
			dir = llcrypt.SlaveToMaster
		}
		hdr := p.Marshal()[0]
		ct, err := c.session.EncryptPDU(hdr, p.Payload, dir)
		if err != nil {
			panic(fmt.Sprintf("link: encrypt: %v", err))
		}
		p = pdu.DataPDU{Header: p.Header, Payload: ct}
	}
	c.txBuf = p.AppendTo(c.txBuf[:0])
	return dataChannelFrame(c.params, c.txBuf)
}

// txEncrypted reports whether outgoing PDUs must be encrypted.
func (c *Conn) txEncrypted() bool {
	switch c.encSt {
	case encOn, encMasterWaitStartRsp:
		return true
	default:
		return false
	}
}

// rxEncrypted reports whether incoming PDUs must be encrypted.
func (c *Conn) rxEncrypted() bool {
	switch c.encSt {
	case encOn, encMasterWaitStartRsp, encSlaveWaitStartRsp:
		return true
	default:
		return false
	}
}

// handleRxPDU runs the SN/NESN engine (spec §4.5.9, paper eq. 6) on a
// CRC-valid PDU and dispatches new data. Returns false if the connection
// was closed during processing.
func (c *Conn) handleRxPDU(p pdu.DataPDU) bool {
	// Acknowledgement: peer's NESN != our SN means our last PDU was
	// received; advance SN and release the retransmission buffer.
	if p.Header.NESN != c.sn {
		c.sn = !c.sn
		if c.inFlight.PDU != nil {
			c.inFlight = medium.Frame{}
			if c.terminating && len(c.txQueue) == 0 {
				c.close(reasonLocalTerminated)
				return false
			}
		}
	}
	// New data: peer's SN equals our NESN.
	if p.Header.SN == c.nesn {
		c.nesn = !c.nesn
		if len(p.Payload) > 0 {
			if !c.processNewData(p) {
				return false
			}
		}
	}
	return true
}

// processNewData decrypts (if needed) and dispatches one new PDU.
func (c *Conn) processNewData(p pdu.DataPDU) bool {
	if c.rxEncrypted() {
		dir := llcrypt.SlaveToMaster
		if c.role == RoleSlave {
			dir = llcrypt.MasterToSlave
		}
		hdr := p.Marshal()[0]
		plain, err := c.session.DecryptPDU(hdr, p.Payload, dir)
		if err != nil {
			// Spec: MIC failure terminates the connection immediately.
			// This is the DoS that remains of InjectaBLE under encryption.
			c.stack.trace("mic-failure", nil)
			c.close(reasonMICFailure)
			return false
		}
		p.Payload = plain
	}
	if p.IsControl() {
		return c.handleControl(p)
	}
	if c.OnData != nil {
		c.OnData(p)
	}
	return true
}

// handleControl processes an LL control PDU. Returns false if the
// connection closed.
func (c *Conn) handleControl(p pdu.DataPDU) bool {
	ctrl, err := pdu.UnmarshalControl(p.Payload)
	if err != nil {
		c.stack.trace("bad-control", func() []sim.Field {
			return []sim.Field{sim.F("err", err.Error())}
		})
		if len(p.Payload) > 0 {
			c.SendControl(pdu.UnknownRsp{UnknownType: p.Payload[0]})
		}
		return true
	}
	c.stack.trace("rx-control", func() []sim.Field {
		return []sim.Field{sim.F("op", ctrl.Opcode().String())}
	})
	alive := true
	switch m := ctrl.(type) {
	case pdu.TerminateInd:
		// Acknowledge before closing: the peer holds the connection open
		// until it sees its LL_TERMINATE_IND acknowledged.
		reason := DisconnectReason{Code: m.ErrorCode, Detail: "remote terminated"}
		c.pendingClose = &reason
	case pdu.ConnectionUpdateInd:
		if c.role == RoleSlave {
			upd := m
			c.pendingUpdate = &upd
		}
	case pdu.ChannelMapInd:
		if c.role == RoleSlave {
			upd := m
			c.pendingChMap = &upd
		}
	case pdu.EncReq:
		alive = c.handleEncReq(m)
	case pdu.EncRsp:
		c.handleEncRsp(m)
	case pdu.StartEncReq:
		c.handleStartEncReq()
	case pdu.StartEncRsp:
		c.handleStartEncRsp()
	case pdu.FeatureReq:
		c.SendControl(pdu.FeatureRsp{FeatureSet: 0x01})
	case pdu.PauseEncReq:
		// Encryption re-keying is not supported: reject rather than
		// silently dropping to plaintext.
		c.SendControl(pdu.RejectInd{ErrorCode: 0x1A}) // unsupported remote feature
	case pdu.VersionInd:
		c.SendControl(pdu.VersionInd{VersNr: 9, CompID: 0xFFFF, SubVersNr: 1})
	case pdu.PingReq:
		c.SendControl(pdu.PingRsp{})
	case pdu.UnknownRsp, pdu.FeatureRsp, pdu.PingRsp, pdu.RejectInd:
		// Responses to our own requests: nothing further to do.
	}
	if c.OnControl != nil {
		c.OnControl(ctrl)
	}
	return alive
}

// --- encryption procedure -------------------------------------------------

func (c *Conn) handleEncReq(m pdu.EncReq) bool {
	if c.role != RoleSlave {
		return true
	}
	ltk, ok := [16]byte{}, false
	if c.OnLTKRequest != nil {
		ltk, ok = c.OnLTKRequest(m.Rand, m.EDIV)
	}
	if !ok {
		c.SendControl(pdu.RejectInd{ErrorCode: 0x06}) // PIN or key missing
		return true
	}
	c.ltk = ltk
	c.encReq = m
	var rsp pdu.EncRsp
	c.stack.RNG.Bytes(rsp.SKDs[:])
	c.stack.RNG.Bytes(rsp.IVs[:])
	c.encRsp = rsp
	c.createSession()
	c.SendControl(rsp)
	c.SendControl(pdu.StartEncReq{})
	c.encSt = encSlaveWaitStartRsp
	return true
}

func (c *Conn) handleEncRsp(m pdu.EncRsp) {
	if c.role != RoleMaster || c.encSt != encMasterWaitRsp {
		return
	}
	c.encRsp = m
	c.createSession()
	c.encSt = encMasterWaitStartReq
}

func (c *Conn) handleStartEncReq() {
	if c.role != RoleMaster || c.encSt != encMasterWaitStartReq {
		return
	}
	// Master turns on encryption both ways and answers (encrypted).
	c.encSt = encMasterWaitStartRsp
	c.SendControl(pdu.StartEncRsp{})
}

func (c *Conn) handleStartEncRsp() {
	switch {
	case c.role == RoleSlave && c.encSt == encSlaveWaitStartRsp:
		// Master's encrypted START_ENC_RSP received: enable TX encryption
		// and confirm.
		c.encSt = encOn
		c.SendControl(pdu.StartEncRsp{})
		c.notifyEncrypted()
	case c.role == RoleMaster && c.encSt == encMasterWaitStartRsp:
		c.encSt = encOn
		c.notifyEncrypted()
	}
}

func (c *Conn) notifyEncrypted() {
	c.stack.trace("encrypted", nil)
	if c.OnEncryptionChange != nil {
		c.OnEncryptionChange(true)
	}
}

func (c *Conn) createSession() {
	skd := llcrypt.SessionKeyDiversifier(c.encReq.SKDm, c.encRsp.SKDs)
	iv := llcrypt.InitializationVector(c.encReq.IVm, c.encRsp.IVs)
	s, err := llcrypt.NewSession(c.ltk, skd, iv)
	if err != nil {
		panic(fmt.Sprintf("link: session: %v", err))
	}
	c.session = s
}

// applyInstantProcedures applies pending channel-map / connection updates
// whose instant matches the upcoming event. It returns the connection
// update to apply this event, if any.
func (c *Conn) applyInstantProcedures() *pdu.ConnectionUpdateInd {
	if c.pendingChMap != nil && c.pendingChMap.Instant == c.eventCount {
		c.selector.SetChannelMap(c.pendingChMap.ChannelMap)
		c.params.ChannelMap = c.pendingChMap.ChannelMap
		c.stack.trace("channel-map-applied", func() []sim.Field {
			return []sim.Field{sim.F("event", c.eventCount)}
		})
		c.pendingChMap = nil
	}
	if c.pendingUpdate != nil && c.pendingUpdate.Instant == c.eventCount {
		upd := c.pendingUpdate
		c.pendingUpdate = nil
		return upd
	}
	return nil
}

// applyUpdateParams installs the new timing parameters from a connection
// update (the transmit-window placement is role-specific).
func (c *Conn) applyUpdateParams(u *pdu.ConnectionUpdateInd) {
	c.params.WinSize = u.WinSize
	c.params.WinOffset = u.WinOffset
	c.params.Interval = u.Interval
	c.params.Latency = u.Latency
	c.params.Timeout = u.Timeout
	c.stack.trace("conn-update-applied", func() []sim.Field {
		return []sim.Field{sim.F("event", c.eventCount), sim.F("interval", u.Interval), sim.F("winOffset", u.WinOffset)}
	})
}

// emitEvent reports a connection event to the instrumentation hook.
func (c *Conn) emitEvent(ch uint8, anchor sim.Time, missed bool) {
	c.ins.onEvent(missed)
	if c.OnEvent != nil {
		c.OnEvent(EventInfo{Counter: c.eventCount, Channel: ch, Anchor: anchor, Missed: missed})
	}
}

func crcOK(params ConnParams, f medium.Frame) bool {
	return crc.Check(params.CRCInit, f.PDU, f.CRC)
}

func airTime(n int) sim.Duration { return phy.LE1M.AirTime(n) }

// maxResponseWait is how long after T_IFS a device keeps listening for the
// peer's response preamble before closing the event.
const maxResponseWait = 50 * sim.Microsecond
