package link

import (
	"injectable/internal/ble"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// NewMasterConn starts the master side of a connection whose CONNECT_REQ
// transmission ended at connReqEnd. The master transmits its first packet
// at the start of the transmit window (eq. 1) and thereafter defines every
// anchor point with its own sleep clock.
func NewMasterConn(stack *Stack, params ConnParams, peer ble.Address, connReqEnd sim.Time) (*Conn, error) {
	c, err := newConn(stack, RoleMaster, params, peer)
	if err != nil {
		return nil, err
	}
	// Master transmits at the beginning of the transmit window.
	offset := ble.ConnUnit + sim.Duration(params.WinOffset)*ble.ConnUnit
	c.scheduleLocal(connReqEnd, offset, stack.label().firstAnchor, c.masterEvent)
	return c, nil
}

// masterEvent runs one connection event from the master side, starting at
// the anchor point (now).
func (c *Conn) masterEvent() {
	if c.closed {
		return
	}
	if c.supervisionExpired() {
		c.close(reasonTimeout)
		return
	}
	if upd := c.applyInstantProcedures(); upd != nil {
		// The new timing applies from this event: the first new anchor sits
		// a transmit-window delay plus offset after the old anchor position.
		c.applyUpdateParams(upd)
		offset := ble.ConnUnit + sim.Duration(upd.WinOffset)*ble.ConnUnit
		c.scheduleLocal(c.stack.Sched.Now(), offset, c.stack.label().updatedAnchor, c.masterEventBody)
		return
	}
	c.masterEventBody()
}

// masterEventBody transmits the event-opening packet and listens for the
// slave's response.
func (c *Conn) masterEventBody() {
	if c.closed {
		return
	}
	ch := c.selector.ChannelFor(c.eventCount)
	c.stack.Radio.SetChannel(phy.Channel(ch))
	anchor := c.stack.Sched.Now()
	c.lastAnchor = anchor
	c.anchorKnown = true
	c.emitEvent(ch, anchor, false)
	c.stack.trace("anchor", func() []sim.Field {
		return []sim.Field{sim.F("event", c.eventCount), sim.F("ch", ch)}
	})

	frame := c.nextPDU()
	c.awaitingResponse = true
	c.stack.Radio.OnTxDone = func() {
		if c.closed {
			return
		}
		c.stack.Radio.OnTxDone = nil
		if c.pendingClose != nil {
			// The packet just sent acknowledged the slave's
			// LL_TERMINATE_IND; close without listening further.
			c.close(*c.pendingClose)
			return
		}
		c.stack.Radio.StartListening()
		// If the slave's response preamble has not started by
		// T_IFS + preamble+AA + slack, the event is over.
		deadline := ble.TIFS + phy.LE1M.PreambleAATime() + maxResponseWait
		c.schedule(deadline, c.stack.label().noResponse, func() {
			if c.closed || !c.awaitingResponse {
				return
			}
			if c.stack.Radio.Locked() || c.stack.Radio.Acquiring() {
				return // reception in progress; onFrame will close the event
			}
			c.awaitingResponse = false
			c.stack.Radio.StopListening()
			c.stack.trace("no-response", func() []sim.Field {
				return []sim.Field{sim.F("event", c.eventCount)}
			})
			c.closeMasterEvent()
		})
	}
	c.stack.Radio.Transmit(frame)
}

// masterOnFrame handles the slave's response within a connection event.
func (c *Conn) masterOnFrame(rx medium.Received) {
	if !c.awaitingResponse {
		return // stray frame outside an event
	}
	c.awaitingResponse = false
	if crcOK(c.params, rx.Frame) {
		c.lastValidRx = c.stack.Sched.Now()
		p, err := unmarshalDataFrame(rx.Frame)
		if err == nil {
			if !c.handleRxPDU(p) {
				return
			}
		}
	} else {
		c.stack.trace("crc-fail", func() []sim.Field {
			return []sim.Field{sim.F("event", c.eventCount)}
		})
	}
	c.closeMasterEvent()
}

// closeMasterEvent advances to the next anchor.
func (c *Conn) closeMasterEvent() {
	if c.closed {
		return
	}
	c.eventCount++
	c.scheduleLocal(c.lastAnchor, c.params.IntervalDuration(), c.stack.label().anchor, c.masterEvent)
}
