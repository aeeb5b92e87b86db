package link

import (
	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/pdu"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// InitiatorConfig configures connection initiation.
type InitiatorConfig struct {
	// Target is the peripheral to connect to; a zero Address connects to
	// the first connectable advertiser heard.
	Target ble.Address
	// Params are the connection parameters to propose. AccessAddress and
	// CRCInit are drawn randomly when zero.
	Params ConnParams
	// ScanWindowPerChannel is how long to dwell on each advertising
	// channel. Zero means 60 ms.
	ScanWindowPerChannel sim.Duration
}

// Initiator scans the advertising channels and establishes a connection to
// a target peripheral, becoming the master.
type Initiator struct {
	stack *Stack
	cfg   InitiatorConfig

	running bool
	chanIdx int
	pending []sim.EventRef

	// OnConnect fires with the established master connection.
	OnConnect func(c *Conn)
	// OnAdvertisement observes every connectable advertisement heard.
	OnAdvertisement func(adv pdu.AdvInd, rssi phy.DBm)
}

// NewInitiator builds an initiator on the stack.
func NewInitiator(stack *Stack, cfg InitiatorConfig) *Initiator {
	if cfg.ScanWindowPerChannel == 0 {
		cfg.ScanWindowPerChannel = 60 * sim.Millisecond
	}
	if cfg.Params.AccessAddress == 0 {
		cfg.Params.AccessAddress = ble.NewAccessAddress(stack.RNG)
	}
	if cfg.Params.CRCInit == 0 {
		cfg.Params.CRCInit = stack.RNG.Uint32() & 0xFFFFFF
	}
	applyConnParamDefaults(&cfg.Params)
	return &Initiator{stack: stack, cfg: cfg}
}

// applyConnParamDefaults fills zero fields with sane values.
func applyConnParamDefaults(p *ConnParams) {
	if p.Interval == 0 {
		p.Interval = 36 // 45 ms, a typical phone default (paper §VII-C)
	}
	if p.WinSize == 0 {
		p.WinSize = 2
	}
	if p.Timeout == 0 {
		p.Timeout = 100 // 1 s
	}
	if p.ChannelMap == 0 {
		p.ChannelMap = ble.AllChannels
	}
	if p.Hop == 0 {
		p.Hop = 7
	}
}

// Start begins scanning for the target.
func (i *Initiator) Start() {
	if i.running {
		return
	}
	i.running = true
	i.stack.Radio.SetAccessAddress(uint32(ble.AdvertisingAccessAddress))
	i.stack.Radio.OnFrame = i.onFrame
	i.chanIdx = 0
	i.listenNext()
}

// Stop aborts initiation.
func (i *Initiator) Stop() {
	i.running = false
	for _, ev := range i.pending {
		i.stack.Sched.Cancel(ev)
	}
	i.pending = i.pending[:0]
	i.stack.Radio.OnFrame = nil
	i.stack.Radio.OnTxDone = nil
	i.stack.Radio.StopListening()
}

// listenNext dwells on the next advertising channel.
func (i *Initiator) listenNext() {
	if !i.running {
		return
	}
	ch := phy.AdvChannels()[i.chanIdx%3]
	i.chanIdx++
	i.stack.Radio.SetChannel(ch)
	i.stack.Radio.StartListening()
	var hop func(d sim.Duration)
	hop = func(d sim.Duration) {
		ev := i.stack.Sched.After(d, i.stack.label().scanHop, func() {
			if !i.running {
				return
			}
			if i.stack.Radio.Locked() || i.stack.Radio.Acquiring() {
				// A frame is mid-air at the window boundary: let it
				// finish, then check again. In a busy cell the timer must
				// re-arm — abandoning it would park the scan on this
				// channel for good.
				hop(sim.Millisecond)
				return
			}
			i.stack.Radio.StopListening()
			i.listenNext()
		})
		i.pending = appendPending(i.pending, ev)
	}
	hop(i.cfg.ScanWindowPerChannel)
}

// onFrame reacts to advertisements: send CONNECT_REQ after T_IFS.
func (i *Initiator) onFrame(rx medium.Received) {
	if !i.running {
		return
	}
	if !crc.Check(ble.AdvertisingCRCInit, rx.Frame.PDU, rx.Frame.CRC) {
		i.resumeListening()
		return
	}
	p, err := pdu.UnmarshalAdvPDU(rx.Frame.PDU)
	if err != nil || p.Type != pdu.AdvIndType {
		i.resumeListening()
		return
	}
	adv, err := pdu.UnmarshalAdvInd(p.Payload)
	if err != nil {
		i.resumeListening()
		return
	}
	adv.ChSel = p.ChSel
	if i.OnAdvertisement != nil {
		i.OnAdvertisement(adv, rx.RSSI)
	}
	var zero ble.Address
	if i.cfg.Target != zero && adv.AdvAddr != i.cfg.Target {
		i.resumeListening()
		return
	}

	useCSA2 := i.cfg.Params.CSA2 && adv.ChSel
	req := pdu.ConnectReq{
		ChSel:         useCSA2,
		InitAddr:      i.stack.Address,
		AdvAddr:       adv.AdvAddr,
		AccessAddress: i.cfg.Params.AccessAddress,
		CRCInit:       i.cfg.Params.CRCInit,
		WinSize:       i.cfg.Params.WinSize,
		WinOffset:     i.cfg.Params.WinOffset,
		Interval:      i.cfg.Params.Interval,
		Latency:       i.cfg.Params.Latency,
		Timeout:       i.cfg.Params.Timeout,
		ChannelMap:    i.cfg.Params.ChannelMap,
		Hop:           i.cfg.Params.Hop,
		SCA:           ble.SCAFromPPM(i.stack.Clock.RatedPPM()),
	}
	i.cfg.Params.MasterSCA = req.SCA
	i.cfg.Params.CSA2 = useCSA2
	frame := advFrame(req.Marshal())
	i.stack.Clock.AtLocalOffset(rx.EndAt, ble.TIFS, i.stack.label().connectReq, func() {
		if !i.running {
			return
		}
		i.stack.Radio.OnTxDone = func() {
			i.stack.Radio.OnTxDone = nil
			connReqEnd := i.stack.Sched.Now()
			i.Stop()
			i.stack.trace("connect-req-sent", func() []sim.Field {
				return []sim.Field{sim.F("to", adv.AdvAddr.String())}
			})
			conn, err := NewMasterConn(i.stack, i.cfg.Params, adv.AdvAddr, connReqEnd)
			if err != nil {
				i.stack.trace("conn-failed", func() []sim.Field {
					return []sim.Field{sim.F("err", err.Error())}
				})
				return
			}
			if i.OnConnect != nil {
				i.OnConnect(conn)
			}
		}
		i.stack.Radio.Transmit(frame)
	})
}

// resumeListening re-opens the receiver after a frame that did not lead to
// a connection.
func (i *Initiator) resumeListening() {
	if i.running {
		i.stack.Radio.StartListening()
	}
}
