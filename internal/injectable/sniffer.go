package injectable

import (
	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/pdu"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// SniffedPacket is one data-channel packet observed inside a connection.
type SniffedPacket struct {
	// Role is the inferred transmitter: the first packet of an event is
	// the master's, the T_IFS follow-up the slave's.
	Role    link.Role
	PDU     pdu.DataPDU
	CRCOK   bool
	Channel uint8
	Event   uint16
	StartAt sim.Time
	EndAt   sim.Time
	RSSI    phy.DBm
}

// Sniffer follows BLE connections passively, as the paper's dongle does
// before arming an injection: it captures CONNECT_REQ on the advertising
// channels, then follows the channel hopping, tracking anchors, SN/NESN
// and parameter-update procedures.
type Sniffer struct {
	stack *link.Stack

	state  *ConnState
	phase  snifferPhase
	paused bool
	// epoch invalidates stale timers: it bumps whenever the sniffer moves
	// on (a hop, a window, a frame, a pause or a stop). timer is the hop,
	// window or close timer last armed, in epoch timerEpoch. At most one
	// timer is live at a time, so arming the next one cancels it: either
	// the epoch has moved since, or it is the timer now running. A timer
	// that runs therefore acts only if the epoch has not moved since it
	// was armed.
	epoch      uint64
	timer      sim.EventRef
	timerEpoch uint64

	// hopIdx counts the advertising-channel dwells; closeAt is when the
	// window whose open is pending closes.
	hopIdx  int
	closeAt sim.Time

	// eventHasMaster marks that the current event's first frame has been
	// observed (so the next frame is the slave's response).
	eventHasMaster bool

	// Labels and callbacks built once, so following a connection event
	// allocates nothing.
	hopLabel, winOpenLabel, winCloseLabel, slaveWaitLabel, eventCloseLabel string
	hopFn, winOpenFn, winCloseFn                                           func()
	advFrameFn, dataFrameFn                                                func(medium.Received)

	// OnConnectReq fires when a connection initiation is captured.
	OnConnectReq func(req pdu.ConnectReq)
	// OnSync fires once the sniffer is following a connection.
	OnSync func(st *ConnState)
	// OnPacket observes every sniffed data packet.
	OnPacket func(p SniffedPacket)
	// OnEventClosed fires after each followed connection event.
	OnEventClosed func(st *ConnState)
	// OnLost fires when the connection is lost (terminated or vanished).
	OnLost func()
}

type snifferPhase int

const (
	phaseIdle snifferPhase = iota
	phaseAdvertising
	phaseFollowing
)

// NewSniffer builds a sniffer on the attacker's stack.
func NewSniffer(stack *link.Stack) *Sniffer {
	n := stack.Name + ":sniff-"
	s := &Sniffer{
		stack:           stack,
		hopLabel:        n + "hop",
		winOpenLabel:    n + "win-open",
		winCloseLabel:   n + "win-close",
		slaveWaitLabel:  n + "slave-wait",
		eventCloseLabel: n + "event-close",
	}
	s.hopFn = s.dwellEnd
	s.winOpenFn = s.windowOpen
	s.winCloseFn = s.windowClose
	s.advFrameFn = s.onAdvFrame
	s.dataFrameFn = s.onDataFrame
	return s
}

// arm schedules fn d from now as the sniffer's one live timer, in the
// current epoch, cancelling the timer armed before it.
func (s *Sniffer) arm(d sim.Duration, label string, fn func()) {
	s.armAt(s.stack.Sched.Now().Add(d), label, fn)
}

// armAt is arm at an absolute instant.
func (s *Sniffer) armAt(at sim.Time, label string, fn func()) {
	s.stack.Sched.Cancel(s.timer)
	s.timerEpoch = s.epoch
	s.timer = s.stack.Sched.At(at, label, fn)
}

// State returns the live connection state (nil before synchronisation).
func (s *Sniffer) State() *ConnState { return s.state }

// Following reports whether the sniffer is locked onto a connection.
func (s *Sniffer) Following() bool { return s.phase == phaseFollowing }

// Start begins listening for CONNECT_REQ on the advertising channels,
// hopping periodically like the paper's sniffer.
func (s *Sniffer) Start() {
	s.phase = phaseAdvertising
	s.stack.Radio.SetPromiscuous(true)
	s.stack.Radio.SetAccessAddress(uint32(ble.AdvertisingAccessAddress))
	s.stack.Radio.OnFrame = s.advFrameFn
	s.hopAdvChannel(0)
}

// Stop halts all sniffing.
func (s *Sniffer) Stop() {
	s.phase = phaseIdle
	s.epoch++
	s.stack.Radio.OnFrame = nil
	s.stack.Radio.StopListening()
}

// hopAdvChannel dwells across 37/38/39 waiting for a CONNECT_REQ.
func (s *Sniffer) hopAdvChannel(i int) {
	if s.phase != phaseAdvertising {
		return
	}
	s.stack.Radio.SetChannel(phy.AdvChannels()[i%3])
	s.stack.Radio.StartListening()
	s.epoch++
	s.hopIdx = i
	s.arm(50*sim.Millisecond, s.hopLabel, s.hopFn)
}

// dwellEnd ends a dwell on an advertising channel and hops to the next.
func (s *Sniffer) dwellEnd() {
	if s.phase != phaseAdvertising || s.epoch != s.timerEpoch {
		return
	}
	if s.stack.Radio.Locked() || s.stack.Radio.Acquiring() {
		// A frame is mid-air at the dwell boundary: let it finish, then
		// check again. In a busy cell (many advertisers) this must re-arm
		// — abandoning the timer would park the sniffer on this channel
		// for good.
		s.arm(sim.Millisecond, s.hopLabel, s.hopFn)
		return
	}
	s.stack.Radio.StopListening()
	s.hopAdvChannel(s.hopIdx + 1)
}

// onAdvFrame inspects advertising traffic for CONNECT_REQ.
func (s *Sniffer) onAdvFrame(rx medium.Received) {
	if s.phase != phaseAdvertising {
		return
	}
	resume := func() { s.stack.Radio.StartListening() }
	if !crc.Check(ble.AdvertisingCRCInit, rx.Frame.PDU, rx.Frame.CRC) {
		resume()
		return
	}
	p, err := pdu.UnmarshalAdvPDU(rx.Frame.PDU)
	if err != nil || p.Type != pdu.ConnectReqType {
		resume()
		return
	}
	req, err := pdu.UnmarshalConnectReq(p.Payload)
	if err != nil {
		resume()
		return
	}
	req.ChSel = p.ChSel // header bit: selects CSA#2
	if s.OnConnectReq != nil {
		s.OnConnectReq(req)
	}
	st, err := newConnState(link.FromConnectReq(req), req.InitAddr, req.AdvAddr)
	if err != nil {
		resume()
		return
	}
	s.followFromConnectReq(st, rx.EndAt)
}

// followFromConnectReq synchronises on a brand-new connection: the first
// anchor will fall inside the transmit window of eq. 1.
func (s *Sniffer) followFromConnectReq(st *ConnState, connReqEnd sim.Time) {
	s.state = st
	s.phase = phaseFollowing
	s.stack.Radio.StopListening()
	st.LastAnchor = connReqEnd // reference until the first anchor
	w := link.NewTransmitWindow(connReqEnd, st.Params.WinOffset, st.Params.WinSize)
	widening := s.widening(w.Start.Sub(connReqEnd))
	openAt := w.Start.Add(-widening)
	closeAt := w.End().Add(widening)
	s.scheduleWindow(openAt, closeAt)
	if s.OnSync != nil {
		s.OnSync(st)
	}
}

// FollowKnownConnection synchronises directly from already-known
// parameters and timing — the path used after parameter recovery on an
// established connection, or by tests. The state's anchor must be recent
// (clock drift accumulates ~tens of µs per second of staleness); elapsed
// whole events are fast-forwarded.
func (s *Sniffer) FollowKnownConnection(st *ConnState) {
	now := s.stack.Sched.Now()
	if st.AnchorKnown {
		// Fast-forward the event counter over events that already passed.
		interval := st.IntervalDuration()
		for st.LastAnchor.Add(sim.Duration(st.MissedEvents+1)*interval) < now {
			st.MissedEvents++
			st.EventCount++
		}
	}
	s.state = st
	s.phase = phaseFollowing
	s.stack.Radio.SetPromiscuous(true)
	s.stack.Radio.OnFrame = nil
	s.stack.Radio.StopListening()
	s.scheduleNextEventWindow()
	if s.OnSync != nil {
		s.OnSync(st)
	}
}

// widening returns the sniffer's listening margin. The sniffer over-widens
// relative to eq. 4 (it would rather waste listening time than lose the
// anchor).
func (s *Sniffer) widening(span sim.Duration) sim.Duration {
	return link.WindowWidening(s.state.Params.MasterSCA.WorstPPM(), 100, span) + 20*sim.Microsecond
}

// Pause releases the radio (the injector takes over for one event).
func (s *Sniffer) Pause() {
	s.paused = true
	s.epoch++
	s.stack.Radio.OnFrame = nil
	s.stack.Radio.StopListening()
}

// Resume re-arms the follower after an injection event. The injector has
// already updated the state (anchor, counters).
func (s *Sniffer) Resume() {
	if s.phase != phaseFollowing {
		return
	}
	s.paused = false
	s.scheduleNextEventWindow()
}

// scheduleNextEventWindow opens the listening window for the upcoming
// event predicted by the state.
func (s *Sniffer) scheduleNextEventWindow() {
	if s.phase != phaseFollowing || s.paused {
		return
	}
	st := s.state
	oldInterval := st.IntervalDuration() // applyInstants may change it
	if upd := st.applyInstants(); upd != nil {
		// Connection update instant: window over the new transmit window,
		// anchored where the OLD schedule's anchor would have fallen.
		predictedOld := st.LastAnchor.Add(sim.Duration(st.MissedEvents+1) * oldInterval)
		w := link.NewTransmitWindow(predictedOld, upd.WinOffset, upd.WinSize)
		widening := s.widening(w.Start.Sub(st.LastAnchor))
		s.scheduleWindow(w.Start.Add(-widening), w.End().Add(widening))
		return
	}
	span := sim.Duration(st.MissedEvents+1) * st.IntervalDuration()
	widening := s.widening(span)
	predicted := st.LastAnchor.Add(span)
	s.scheduleWindow(predicted.Add(-widening), predicted.Add(widening))
}

// scheduleWindow arms radio listening over [openAt, closeAt] on the
// upcoming event's channel.
func (s *Sniffer) scheduleWindow(openAt, closeAt sim.Time) {
	s.epoch++
	now := s.stack.Sched.Now()
	if openAt < now {
		openAt = now
	}
	s.closeAt = closeAt
	s.armAt(openAt, s.winOpenLabel, s.winOpenFn)
}

// windowOpen starts listening on the upcoming event's channel until the
// staged close instant.
func (s *Sniffer) windowOpen() {
	if s.phase != phaseFollowing || s.paused || s.epoch != s.timerEpoch {
		return
	}
	st := s.state
	ch := st.ChannelFor(st.EventCount)
	s.eventHasMaster = false
	st.LastEventSawSlave = false
	s.stack.Radio.SetChannel(phy.Channel(ch))
	s.stack.Radio.SetAccessAddress(uint32(st.Params.AccessAddress))
	s.stack.Radio.OnFrame = s.dataFrameFn
	s.stack.Radio.StartListening()
	closeIn := s.closeAt.Sub(s.stack.Sched.Now())
	if closeIn < 0 {
		closeIn = 0
	}
	s.arm(closeIn, s.winCloseLabel, s.winCloseFn)
}

// windowClose ends the event observation if nothing more is arriving.
func (s *Sniffer) windowClose() {
	if s.phase != phaseFollowing || s.paused || s.epoch != s.timerEpoch {
		return
	}
	if s.stack.Radio.Locked() || s.stack.Radio.Acquiring() {
		s.arm(60*sim.Microsecond, s.winCloseLabel, s.winCloseFn)
		return
	}
	s.stack.Radio.StopListening()
	st := s.state
	if !s.eventHasMaster {
		st.MissedEvents++
		if st.MissedEvents > 16 && !st.AnchorKnown {
			s.lost()
			return
		}
		if sim.Duration(st.MissedEvents)*st.IntervalDuration() > st.Params.SupervisionTimeout() {
			s.lost()
			return
		}
	}
	st.EventCount++
	if s.OnEventClosed != nil {
		s.OnEventClosed(st)
	}
	s.scheduleNextEventWindow()
}

// lost declares the followed connection gone.
func (s *Sniffer) lost() {
	s.phase = phaseIdle
	s.stack.Radio.OnFrame = nil
	s.stack.Radio.StopListening()
	if s.OnLost != nil {
		s.OnLost()
	}
}

// onDataFrame handles one sniffed data-channel frame.
func (s *Sniffer) onDataFrame(rx medium.Received) {
	if s.phase != phaseFollowing || s.paused {
		return
	}
	st := s.state
	crcOK := crc.Check(st.Params.CRCInit, rx.Frame.PDU, rx.Frame.CRC)
	p, err := pdu.UnmarshalDataPDU(rx.Frame.PDU)

	role := link.RoleMaster
	if s.eventHasMaster {
		role = link.RoleSlave
	}
	if role == link.RoleMaster {
		// First frame of the event: the anchor point. Its deviation from
		// the one-interval prediction is the master's observable timing
		// jitter (plus our own clock noise) — the injector adapts its
		// aggressiveness to it.
		if st.AnchorKnown && st.MissedEvents == 0 {
			predicted := st.LastAnchor.Add(st.IntervalDuration())
			st.observeAnchorResidual(rx.StartAt.Sub(predicted))
		}
		s.eventHasMaster = true
		st.LastAnchor = rx.StartAt
		st.AnchorKnown = true
		st.MissedEvents = 0
		if crcOK && err == nil {
			st.observeMaster(p)
		}
		// Keep listening for the slave's response.
		s.stack.Radio.StartListening()
		s.epoch++
		deadline := ble.TIFS + phy.LE1M.PreambleAATime() + 60*sim.Microsecond
		s.arm(deadline, s.slaveWaitLabel, s.winCloseFn)
	} else {
		st.LastEventSawSlave = true
		if crcOK && err == nil {
			st.observeSlave(p)
			if p.IsControl() {
				if ctrl, cerr := pdu.UnmarshalControl(p.Payload); cerr == nil {
					if _, isTerm := ctrl.(pdu.TerminateInd); isTerm {
						s.deliverPacket(role, p, crcOK, rx)
						s.lost()
						return
					}
				}
			}
		}
		// Event complete after the slave frame (single exchange model).
		s.epoch++
		s.arm(sim.Microsecond, s.eventCloseLabel, s.winCloseFn)
	}
	if err == nil {
		s.deliverPacket(role, p, crcOK, rx)
	}
	// A master TERMINATE_IND also ends the connection once acked; treat
	// observation conservatively: wait for the slave frame then continue —
	// the supervision logic notices the silence either way.
}

func (s *Sniffer) deliverPacket(role link.Role, p pdu.DataPDU, crcOK bool, rx medium.Received) {
	if s.OnPacket == nil {
		return
	}
	s.OnPacket(SniffedPacket{
		Role:    role,
		PDU:     p,
		CRCOK:   crcOK,
		Channel: uint8(rx.Channel),
		Event:   s.state.EventCount,
		StartAt: rx.StartAt,
		EndAt:   rx.EndAt,
		RSSI:    rx.RSSI,
	})
}
