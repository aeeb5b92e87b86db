package link

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/pdu"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// NewSlaveConn starts the slave side of a connection whose CONNECT_REQ
// reception ended at connReqEnd. The slave opens a receive window over the
// master's transmit window (eq. 1), widened for clock inaccuracy (eq. 4),
// and treats the first matching packet as the first anchor point t₀.
func NewSlaveConn(stack *Stack, params ConnParams, peer ble.Address, connReqEnd sim.Time) (*Conn, error) {
	c, err := newConn(stack, RoleSlave, params, peer)
	if err != nil {
		return nil, err
	}
	c.lastAnchor = connReqEnd // timing reference until the first anchor
	c.scheduleSlaveWindowForTransmitWindow(
		NewTransmitWindow(connReqEnd, params.WinOffset, params.WinSize), connReqEnd)
	return c, nil
}

// ownSCA returns this device's rated sleep-clock accuracy in ppm.
func (c *Conn) ownSCA() float64 { return c.stack.Clock.RatedPPM() }

// scaledWidening applies the stack's countermeasure scale to a widening.
func (c *Conn) scaledWidening(w sim.Duration) sim.Duration {
	return sim.Duration(float64(w) * c.stack.wideningScale())
}

// scheduleSlaveWindowForTransmitWindow opens the receiver over a
// master-chosen transmit window (initial connection or connection update).
func (c *Conn) scheduleSlaveWindowForTransmitWindow(w TransmitWindow, ref sim.Time) {
	span := w.Start.Sub(ref)
	widening := c.scaledWidening(WindowWidening(c.params.MasterSCA.WorstPPM(), c.ownSCA(), span))
	c.ins.onWidening(widening)
	c.setPendingWindow(WindowInitial, span, widening, w.Size)
	openOffset := span - widening
	closeOffset := w.End().Sub(ref) + widening
	c.winWidth = closeOffset - openOffset
	c.scheduleLocal(ref, openOffset, c.stack.label().winOpen, c.winOpenFn)
}

// setPendingWindow stages the widening inputs for the next slaveOpenWindow.
func (c *Conn) setPendingWindow(kind WindowKind, span, widening, txWinSize sim.Duration) {
	c.pendingWindow = WindowInfo{
		Kind: kind, Span: span, Widening: widening, TxWinSize: txWinSize,
		MasterPPM: c.params.MasterSCA.WorstPPM(), SlavePPM: c.ownSCA(),
	}
}

// scheduleNextSlaveWindow predicts the next anchor and opens the widened
// receive window around it. Must be called with eventCount already set to
// the upcoming event.
func (c *Conn) scheduleNextSlaveWindow() {
	if c.closed {
		return
	}
	if upd := c.applyInstantProcedures(); upd != nil {
		// Connection update (paper Fig. 2): at the instant, the slave waits
		// for the master inside a fresh transmit window anchored where the
		// old schedule's anchor would have fallen.
		predictedOld := sim.Duration(c.missedEvents+1) * c.params.IntervalDuration()
		c.applyUpdateParams(upd)
		ref := c.lastAnchor
		w := NewTransmitWindow(ref.Add(predictedOld), upd.WinOffset, upd.WinSize)
		span := w.Start.Sub(ref)
		widening := c.scaledWidening(WindowWidening(c.params.MasterSCA.WorstPPM(), c.ownSCA(), span))
		c.ins.onWidening(widening)
		c.setPendingWindow(WindowUpdate, span, widening, w.Size)
		openOffset := span - widening
		closeOffset := w.End().Sub(ref) + widening
		c.winWidth = closeOffset - openOffset
		c.scheduleLocal(ref, openOffset, c.stack.label().updWinOpen, c.winOpenFn)
		return
	}
	// Slave latency: skip events when quiet (paper §III-B.8). Skipping
	// stretches the span since the last anchor, which widens the window —
	// the property the paper notes makes latency > 0 easier to attack.
	if skip := c.latencySkip(); skip > 0 {
		c.eventCount += skip
		c.missedEvents += skip
	}
	span := sim.Duration(c.missedEvents+1) * c.params.IntervalDuration()
	widening := c.currentWidening()
	c.ins.onWidening(widening)
	c.setPendingWindow(WindowSteady, span, widening, 0)
	c.winWidth = 2 * widening
	c.scheduleLocal(c.lastAnchor, span-widening, c.stack.label().winOpen, c.winOpenFn)
}

// currentWidening returns the receive-window half-width for the upcoming
// event (eq. 4/5).
func (c *Conn) currentWidening() sim.Duration {
	span := sim.Duration(c.missedEvents+1) * c.params.IntervalDuration()
	return c.scaledWidening(WindowWidening(c.params.MasterSCA.WorstPPM(), c.ownSCA(), span))
}

// latencySkip returns how many events the slave may sleep through.
func (c *Conn) latencySkip() uint16 {
	if c.params.Latency == 0 || len(c.txQueue) > 0 || c.inFlight.PDU != nil || !c.anchorKnown {
		return 0
	}
	skip := c.params.Latency
	// Never sleep through a procedure instant.
	capToInstant := func(instant uint16) {
		gap := instant - c.eventCount // modular distance to the instant
		if gap < 0x8000 && gap <= skip {
			if gap == 0 {
				skip = 0
			} else {
				skip = gap - 1
			}
		}
	}
	if c.pendingUpdate != nil {
		capToInstant(c.pendingUpdate.Instant)
	}
	if c.pendingChMap != nil {
		capToInstant(c.pendingChMap.Instant)
	}
	return skip
}

// slaveOpenWindow tunes to the event's channel and listens for the
// window width staged with it.
func (c *Conn) slaveOpenWindow() {
	if c.closed {
		return
	}
	width := c.winWidth
	if c.supervisionExpired() {
		c.close(reasonTimeout)
		return
	}
	ch := c.selector.ChannelFor(c.eventCount)
	c.stack.Radio.SetChannel(phy.Channel(ch))
	c.stack.Radio.StartListening()
	c.stack.trace("win-open", func() []sim.Field {
		return []sim.Field{sim.F("event", c.eventCount), sim.F("ch", ch), sim.F("width", width.String())}
	})
	c.ins.onWindowOpen(c, ch, width)
	if c.OnWindow != nil {
		w := c.pendingWindow
		w.Event = c.eventCount
		w.Channel = ch
		w.OpenAt = c.stack.Sched.Now()
		w.Width = width
		c.OnWindow(w)
	}
	c.winEpoch++
	c.armWindowClose(width)
}

// armWindowClose arms the window-close timer d from now, in the current
// epoch. It cancels the close armed before: the epoch has moved since that
// one was armed, or it is the close now running, so it could only be a
// no-op, and left queued it would read this close's epoch.
func (c *Conn) armWindowClose(d sim.Duration) {
	c.stack.Sched.Cancel(c.winClose)
	c.winCloseEpoch = c.winEpoch
	c.winClose = c.stack.Sched.After(d, c.stack.label().winClose, c.winCloseFn)
	c.timers = appendPending(c.timers, c.winClose)
}

// slaveWindowClose fires at the end of the widened receive window. Packets
// whose start fell inside the window are still being received and complete
// normally (the spec constrains only the packet start).
func (c *Conn) slaveWindowClose() {
	if c.closed || c.winEpoch != c.winCloseEpoch {
		return // a frame arrived in this window; the event moved on
	}
	if c.stack.Radio.Locked() {
		return // onFrame will close the event
	}
	if c.stack.Radio.Acquiring() {
		// A preamble that started inside the window is still arriving.
		c.armWindowClose(phy.LE1M.PreambleAATime() + 5*sim.Microsecond)
		return
	}
	c.stack.Radio.StopListening()
	c.stack.trace("missed-event", func() []sim.Field {
		return []sim.Field{sim.F("event", c.eventCount)}
	})
	c.emitEvent(c.selector.ChannelFor(c.eventCount), 0, true)
	c.eventCount++
	c.missedEvents++
	if !c.anchorKnown && c.missedEvents >= 6 {
		c.close(DisconnectReason{Code: pdu.ErrCodeConnectionFailedToEst, Detail: "no first anchor"})
		return
	}
	c.scheduleNextSlaveWindow()
}

// slaveOnFrame handles a frame received inside the receive window. THIS is
// the window-widening vulnerability: whatever arrives first with the right
// access address becomes the anchor point — the spec has no way to tell
// the legitimate master from an attacker who wins the race (paper §V).
func (c *Conn) slaveOnFrame(rx medium.Received) {
	c.winEpoch++ // invalidate this window's close timer
	anchor := rx.StartAt
	c.ins.onAnchor(c, anchor) // before the state mutates: residual needs the prediction
	c.lastAnchor = anchor
	c.anchorKnown = true
	c.missedEvents = 0
	c.emitEvent(c.selector.ChannelFor(c.eventCount), anchor, false)

	valid := crcOK(c.params, rx.Frame)
	if valid {
		c.lastValidRx = c.stack.Sched.Now()
		p, err := unmarshalDataFrame(rx.Frame)
		if err == nil {
			if !c.handleRxPDU(p) {
				return // connection closed (terminate / MIC failure)
			}
		}
	} else {
		// CRC failure: the frame still resynchronises the anchor, but
		// SN/NESN do not advance — the response repeats the previous NESN,
		// which is exactly what the attacker's success heuristic (eq. 7)
		// observes.
		c.stack.trace("crc-fail", func() []sim.Field {
			return []sim.Field{sim.F("event", c.eventCount)}
		})
		c.ins.onCRCFail()
	}

	// Respond T_IFS after the end of the received frame.
	c.response = c.nextPDU()
	c.scheduleLocal(rx.EndAt, ble.TIFS, c.stack.label().response, c.respondFn)
}

// respond sends the staged response frame.
func (c *Conn) respond() {
	if c.closed {
		return
	}
	c.stack.Radio.OnTxDone = c.slaveTxDoneFn
	c.stack.Radio.Transmit(c.response)
}

// slaveTxDone closes the event once the response is out.
func (c *Conn) slaveTxDone() {
	c.stack.Radio.OnTxDone = nil
	if c.closed {
		return
	}
	c.closeSlaveEvent()
}

// closeSlaveEvent ends the event after the response transmission.
func (c *Conn) closeSlaveEvent() {
	if c.pendingClose != nil {
		// Our response carried the acknowledgement of the peer's
		// LL_TERMINATE_IND; the connection may now close.
		c.close(*c.pendingClose)
		return
	}
	c.eventCount++
	c.scheduleNextSlaveWindow()
}

// onFrame dispatches radio deliveries by role.
func (c *Conn) onFrame(rx medium.Received) {
	if c.closed {
		return
	}
	if c.role == RoleMaster {
		c.masterOnFrame(rx)
		return
	}
	c.slaveOnFrame(rx)
}

// unmarshalDataFrame decodes the PDU of an on-air data-channel frame.
func unmarshalDataFrame(f medium.Frame) (pdu.DataPDU, error) {
	p, err := pdu.UnmarshalDataPDU(f.PDU)
	if err != nil {
		return p, fmt.Errorf("link: %w", err)
	}
	return p, nil
}
