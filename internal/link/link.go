// Package link implements the BLE Link Layer state machines on top of the
// simulated radio medium: advertising, scanning/initiating, and the
// connected-mode engine for both Master and Slave roles.
//
// Everything the InjectaBLE paper exploits lives here, implemented to the
// letter of the Core Specification:
//
//   - anchor points and connection events (paper §III-B.5, eq. 2/3);
//   - the transmit window of connection setup and connection update
//     (eq. 1, Fig. 2);
//   - the slave's receive-window widening for sleep-clock inaccuracy
//     (eq. 4/5, Fig. 4) — the vulnerability itself: any frame whose start
//     falls inside the widened window with a matching access address is
//     accepted as the master's and becomes the new anchor point;
//   - SN/NESN acknowledgement and flow control (eq. 6);
//   - the LL control procedures the attack scenarios forge
//     (LL_TERMINATE_IND, LL_CONNECTION_UPDATE_IND, LL_CHANNEL_MAP_IND) and
//     the encryption-start procedure used by the countermeasure study.
//
// Scope note: each connection event carries exactly one master↔slave PDU
// exchange; the MD bit is transmitted (so sniffers see realistic headers)
// but does not extend events with further exchanges. Everything the paper
// measures — the anchor race, widening, SN/NESN retransmission — is
// independent of intra-event continuation, and queued data simply drains
// across subsequent events.
package link

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/csa"
	"injectable/internal/ble/pdu"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// Stack bundles the per-device plumbing every Link Layer role needs.
type Stack struct {
	Name   string
	Sched  *sim.Scheduler
	Clock  *sim.Clock
	RNG    *sim.RNG
	Radio  *medium.Radio
	Tracer sim.Tracer
	// Obs receives link-layer metrics and forensics-ledger events
	// (window widening extents, anchor drift, retransmissions). Nil
	// means no observability instrumentation.
	Obs *obs.Hub
	// Address is the device's own address.
	Address ble.Address
	// WideningScale shrinks (<1) or stretches (>1) this device's slave
	// receive-window widening relative to the spec formula — the paper's
	// first countermeasure proposal (§VIII: "reducing the duration of the
	// widening windows"). Zero means 1.0. The paper also warns the side
	// effect: too small a window breaks legitimate connections; the
	// countermeasure experiments quantify both.
	WideningScale float64

	labels *stackLabels // built on first use by label
}

// stackLabels holds the scheduler labels of one stack's timers. Labels
// are hot-path strings and concatenating them per event allocates, so
// each stack builds them once, as medium.Radio does for its own.
type stackLabels struct {
	advEvent, advRxClose, scanRsp                                 string
	scanHop, connectReq                                           string
	firstAnchor, updatedAnchor, adoptedAnchor, anchor, noResponse string
	winOpen, updWinOpen, winClose, response                       string
}

// label returns the stack's scheduler labels, building them on first use.
func (s *Stack) label() *stackLabels {
	if s.labels == nil {
		n := s.Name + ":"
		s.labels = &stackLabels{
			advEvent:      n + "adv-event",
			advRxClose:    n + "adv-rx-close",
			scanRsp:       n + "scan-rsp",
			scanHop:       n + "scan-hop",
			connectReq:    n + "connect-req",
			firstAnchor:   n + "first-anchor",
			updatedAnchor: n + "updated-anchor",
			adoptedAnchor: n + "adopted-anchor",
			anchor:        n + "anchor",
			noResponse:    n + "no-response",
			winOpen:       n + "win-open",
			updWinOpen:    n + "upd-win-open",
			winClose:      n + "win-close",
			response:      n + "response",
		}
	}
	return s.labels
}

// appendPending adds ev to a list of timers its owner cancels on Stop or
// close. When the list is full, refs that already ran or were cancelled
// are compacted out in place before it grows, so the list stays as short
// as the set of timers still pending rather than growing for as long as
// its owner runs. Cancelling a dropped ref would have been a no-op, so
// cancelling the list cancels exactly the same events.
func appendPending(refs []sim.EventRef, ev sim.EventRef) []sim.EventRef {
	if len(refs) == cap(refs) {
		live := refs[:0]
		for _, r := range refs {
			if r.Pending() {
				live = append(live, r)
			}
		}
		refs = live
	}
	return append(refs, ev)
}

// wideningScale returns the effective scale factor.
func (s *Stack) wideningScale() float64 {
	if s.WideningScale <= 0 {
		return 1
	}
	return s.WideningScale
}

// trace emits a trace event tagged with the stack's name.
func (s *Stack) trace(kind string, fields sim.FieldFunc) {
	sim.Emit(s.Tracer, s.Sched.Now(), s.Name, kind, fields)
}

// ConnParams is the full parameter set of a BLE connection, as carried by
// CONNECT_REQ (Table II of the paper).
type ConnParams struct {
	AccessAddress ble.AccessAddress
	CRCInit       uint32
	WinSize       uint8  // × 1.25 ms
	WinOffset     uint16 // × 1.25 ms
	Interval      uint16 // × 1.25 ms — the paper's "Hop Interval"
	Latency       uint16 // slave latency in events
	Timeout       uint16 // supervision timeout × 10 ms
	ChannelMap    ble.ChannelMap
	Hop           uint8
	MasterSCA     ble.SCA
	// CSA2 selects Channel Selection Algorithm #2 (BLE 5.0), negotiated
	// via the ChSel bits of ADV_IND and CONNECT_REQ. The paper evaluates
	// CSA#1 but notes the attack "can be easily adapted" — this flag is
	// that adaptation.
	CSA2 bool
}

// FromConnectReq extracts connection parameters from a CONNECT_REQ PDU.
func FromConnectReq(c pdu.ConnectReq) ConnParams {
	return ConnParams{
		AccessAddress: c.AccessAddress,
		CRCInit:       c.CRCInit,
		WinSize:       c.WinSize,
		WinOffset:     c.WinOffset,
		Interval:      c.Interval,
		Latency:       c.Latency,
		Timeout:       c.Timeout,
		ChannelMap:    c.ChannelMap,
		Hop:           c.Hop,
		MasterSCA:     c.SCA,
		CSA2:          c.ChSel,
	}
}

// IntervalDuration returns the connection interval as a duration (eq. 2).
func (p ConnParams) IntervalDuration() sim.Duration {
	return sim.Duration(p.Interval) * ble.ConnUnit
}

// SupervisionTimeout returns the supervision timeout as a duration.
func (p ConnParams) SupervisionTimeout() sim.Duration {
	return sim.Duration(p.Timeout) * ble.TimeoutUnit
}

// WindowWidening computes the slave receive-window widening (the paper's
// eq. 4):
//
//	w = (SCA_M + SCA_S)/10⁶ × (t_nextAnchor − t_lastAnchor) + 32 µs
//
// scaM and scaS are the two sleep-clock accuracies in ppm and
// sinceLastAnchor is the span between the last observed anchor point and
// the predicted one (equal to the connection interval when no event was
// missed and latency is zero — eq. 5).
func WindowWidening(scaM, scaS float64, sinceLastAnchor sim.Duration) sim.Duration {
	drift := float64(sinceLastAnchor) * (scaM + scaS) * 1e-6
	return sim.Duration(drift) + ble.WindowWideningFloor
}

// TransmitWindow describes the window in which the master's first packet
// of a (new or updated) connection may arrive (the paper's eq. 1):
// Start = reference + 1.25 ms + WinOffset×1.25 ms, width WinSize×1.25 ms.
type TransmitWindow struct {
	Start sim.Time
	Size  sim.Duration
}

// NewTransmitWindow computes the transmit window following a CONNECT_REQ
// whose transmission ended at ref, or a connection-update instant anchor.
func NewTransmitWindow(ref sim.Time, winOffset uint16, winSize uint8) TransmitWindow {
	return TransmitWindow{
		Start: ref.Add(ble.ConnUnit + sim.Duration(winOffset)*ble.ConnUnit),
		Size:  sim.Duration(winSize) * ble.ConnUnit,
	}
}

// End returns the end of the window.
func (w TransmitWindow) End() sim.Time { return w.Start.Add(w.Size) }

// DisconnectReason says why a connection ended.
type DisconnectReason struct {
	// Code is an HCI-style error code (pdu.ErrCode*).
	Code uint8
	// Detail is a human-readable explanation.
	Detail string
}

// String implements fmt.Stringer.
func (r DisconnectReason) String() string {
	return fmt.Sprintf("disconnect(0x%02X: %s)", r.Code, r.Detail)
}

// Common disconnect reasons.
var (
	reasonRemoteTerminated = DisconnectReason{Code: pdu.ErrCodeRemoteUserTerminated, Detail: "remote terminated"}
	reasonTimeout          = DisconnectReason{Code: pdu.ErrCodeConnectionTimeout, Detail: "supervision timeout"}
	reasonMICFailure       = DisconnectReason{Code: pdu.ErrCodeMICFailure, Detail: "MIC failure"}
	reasonLocalTerminated  = DisconnectReason{Code: pdu.ErrCodeRemoteUserTerminated, Detail: "local terminate"}
)

// newSelector builds the channel selection algorithm the connection uses.
func newSelector(params ConnParams) (csa.Selector, error) {
	if params.CSA2 {
		return csa.NewAlgorithm2(params.AccessAddress, params.ChannelMap)
	}
	return csa.NewAlgorithm1(params.Hop, params.ChannelMap)
}

// dataChannelFrame builds the on-air frame for a marshaled data PDU under
// params.
func dataChannelFrame(params ConnParams, raw []byte) medium.Frame {
	return medium.Frame{
		Mode:          phy.LE1M,
		AccessAddress: uint32(params.AccessAddress),
		PDU:           raw,
		CRC:           crc.Compute(params.CRCInit, raw),
	}
}
