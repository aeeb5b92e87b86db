package link

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/pdu"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// AdvertiserConfig configures advertising behaviour.
type AdvertiserConfig struct {
	// AdvData is the advertisement payload (≤ 31 bytes of AD structures).
	AdvData []byte
	// ScanData answers active scans.
	ScanData []byte
	// Interval between advertising events; the spec adds a 0–10 ms random
	// delay on top. Zero means 100 ms.
	Interval sim.Duration
}

// Advertiser broadcasts connectable advertisements on channels 37–39 and
// accepts incoming CONNECT_REQ PDUs, yielding slave connections.
type Advertiser struct {
	stack *Stack
	cfg   AdvertiserConfig

	running bool
	chanIdx int
	epoch   uint64 // invalidates stale per-channel timers
	pending []sim.EventRef

	// rxClose is the timer that ends the listen after an ADV_IND, armed
	// in rxCloseEpoch; it acts only if the epoch has not moved since.
	rxClose      sim.EventRef
	rxCloseEpoch uint64

	// advInd and scanRsp are marshalled, CRC included, once per Start:
	// neither the payloads nor the address change while the advertiser
	// runs, and Radio.Transmit copies the PDU it sends.
	advInd, scanRsp medium.Frame

	// Callbacks bound once, so an advertising packet allocates none.
	eventFn, txDoneFn, rxCloseFn func()
	frameFn                      func(medium.Received)

	// OnConnect fires when a CONNECT_REQ addressed to us establishes a
	// slave connection.
	OnConnect func(c *Conn)
}

// NewAdvertiser builds an advertiser on the stack.
func NewAdvertiser(stack *Stack, cfg AdvertiserConfig) *Advertiser {
	if cfg.Interval == 0 {
		cfg.Interval = 100 * sim.Millisecond
	}
	a := &Advertiser{stack: stack, cfg: cfg}
	a.eventFn = a.startEvent
	a.txDoneFn = a.advTxDone
	a.rxCloseFn = a.closeRx
	a.frameFn = a.onFrame
	return a
}

// Start begins advertising.
func (a *Advertiser) Start() {
	if a.running {
		return
	}
	a.running = true
	adv := pdu.AdvInd{AdvAddr: a.stack.Address, AdvData: a.cfg.AdvData, ChSel: true}
	a.advInd = advFrame(adv.Marshal())
	rsp := pdu.ScanRsp{AdvAddr: a.stack.Address, ScanData: a.cfg.ScanData}
	a.scanRsp = advFrame(rsp.Marshal())
	a.stack.Radio.SetAccessAddress(uint32(ble.AdvertisingAccessAddress))
	a.scheduleEvent(a.stack.RNG.Duration(5 * sim.Millisecond))
}

// Stop ceases advertising (a peripheral stops when connected).
func (a *Advertiser) Stop() {
	a.running = false
	for _, ev := range a.pending {
		a.stack.Sched.Cancel(ev)
	}
	a.pending = a.pending[:0]
	a.stack.Radio.OnFrame = nil
	a.stack.Radio.OnTxDone = nil
	a.stack.Radio.StopListening()
}

func (a *Advertiser) scheduleEvent(d sim.Duration) {
	a.pending = appendPending(a.pending, a.stack.Sched.After(d, a.stack.label().advEvent, a.eventFn))
}

// startEvent opens an advertising event on the first channel.
func (a *Advertiser) startEvent() {
	a.chanIdx = 0
	a.advertiseOnNext()
}

// advertiseOnNext transmits ADV_IND on the next advertising channel and
// listens briefly for SCAN_REQ / CONNECT_REQ.
func (a *Advertiser) advertiseOnNext() {
	if !a.running || a.stack.Radio.Transmitting() {
		return
	}
	a.epoch++
	if a.chanIdx >= len(phy.AdvChannels()) {
		// Event over; next event after interval + advDelay(0..10 ms).
		a.scheduleEvent(a.cfg.Interval + a.stack.RNG.Duration(10*sim.Millisecond))
		return
	}
	ch := phy.AdvChannels()[a.chanIdx]
	a.chanIdx++
	a.stack.Radio.SetChannel(ch)
	a.stack.Radio.OnTxDone = a.txDoneFn
	a.stack.trace("adv-tx", func() []sim.Field {
		return []sim.Field{sim.F("ch", ch)}
	})
	a.stack.Radio.Transmit(a.advInd)
}

// advTxDone opens the receiver after an ADV_IND, listening T_IFS + a
// CONNECT_REQ air time before moving on.
func (a *Advertiser) advTxDone() {
	a.stack.Radio.OnTxDone = nil
	if !a.running {
		return
	}
	a.stack.Radio.OnFrame = a.frameFn
	a.stack.Radio.StartListening()
	window := ble.TIFS + phy.LE1M.AirTime(36) + 20*sim.Microsecond
	// Every ADV_IND bumps the epoch before it is sent, so the previous
	// rx-close, if still pending, is stale: cancel it rather than let it
	// read the epoch armed here.
	a.stack.Sched.Cancel(a.rxClose)
	a.rxCloseEpoch = a.epoch
	a.rxClose = a.stack.Sched.After(window, a.stack.label().advRxClose, a.rxCloseFn)
	a.pending = appendPending(a.pending, a.rxClose)
}

// closeRx ends the listen after an ADV_IND and moves to the next channel.
func (a *Advertiser) closeRx() {
	if !a.running || a.epoch != a.rxCloseEpoch {
		return // a frame arrived and moved the event along
	}
	if a.stack.Radio.Locked() || a.stack.Radio.Acquiring() {
		return
	}
	a.stack.Radio.StopListening()
	a.advertiseOnNext()
}

// onFrame handles SCAN_REQ and CONNECT_REQ while advertising.
func (a *Advertiser) onFrame(rx medium.Received) {
	if !a.running {
		return
	}
	a.epoch++ // invalidate the pending rx-close timer for this channel
	if !crc.Check(ble.AdvertisingCRCInit, rx.Frame.PDU, rx.Frame.CRC) {
		a.advertiseOnNext()
		return
	}
	p, err := pdu.UnmarshalAdvPDU(rx.Frame.PDU)
	if err != nil {
		a.advertiseOnNext()
		return
	}
	switch p.Type {
	case pdu.ScanReqType:
		req, err := pdu.UnmarshalScanReq(p.Payload)
		if err != nil || req.AdvAddr != a.stack.Address {
			a.advertiseOnNext()
			return
		}
		a.stack.Clock.AtLocalOffset(rx.EndAt, ble.TIFS, a.stack.label().scanRsp, func() {
			if !a.running {
				return
			}
			a.stack.Radio.OnTxDone = func() {
				a.stack.Radio.OnTxDone = nil
				a.advertiseOnNext()
			}
			a.stack.Radio.Transmit(a.scanRsp)
		})
	case pdu.ConnectReqType:
		req, err := pdu.UnmarshalConnectReq(p.Payload)
		if err != nil || req.AdvAddr != a.stack.Address {
			a.advertiseOnNext()
			return
		}
		req.ChSel = p.ChSel // carried in the PDU header
		if err := req.Validate(); err != nil {
			a.stack.trace("connect-req-invalid", func() []sim.Field {
				return []sim.Field{sim.F("err", err.Error())}
			})
			a.advertiseOnNext()
			return
		}
		a.stack.trace("connect-req", func() []sim.Field {
			return []sim.Field{sim.F("from", req.InitAddr.String())}
		})
		a.Stop()
		conn, err := NewSlaveConn(a.stack, FromConnectReq(req), req.InitAddr, rx.EndAt)
		if err != nil {
			a.stack.trace("conn-failed", func() []sim.Field {
				return []sim.Field{sim.F("err", err.Error())}
			})
			return
		}
		if a.OnConnect != nil {
			a.OnConnect(conn)
		}
	default:
		a.advertiseOnNext()
	}
}

// advFrame builds an advertising-channel frame with the fixed AA and CRC
// init.
func advFrame(pduBytes []byte) medium.Frame {
	return medium.Frame{
		Mode:          phy.LE1M,
		AccessAddress: uint32(ble.AdvertisingAccessAddress),
		PDU:           pduBytes,
		CRC:           crc.Compute(ble.AdvertisingCRCInit, pduBytes),
	}
}

// String implements fmt.Stringer.
func (a *Advertiser) String() string {
	return fmt.Sprintf("Advertiser(%s)", a.stack.Address)
}
