package pdu

import "fmt"

// LLID is the 2-bit logical link identifier of a data-channel PDU header.
type LLID uint8

// LLID values (Core Spec Vol 6 Part B §2.4).
const (
	// LLIDContinuation is an L2CAP continuation fragment or empty PDU.
	LLIDContinuation LLID = 0x1
	// LLIDStart is an L2CAP start fragment or complete message.
	LLIDStart LLID = 0x2
	// LLIDControl is an LL control PDU.
	LLIDControl LLID = 0x3
)

// String implements fmt.Stringer.
func (l LLID) String() string {
	switch l {
	case LLIDContinuation:
		return "cont"
	case LLIDStart:
		return "start"
	case LLIDControl:
		return "control"
	default:
		return fmt.Sprintf("LLID(%d)", uint8(l))
	}
}

// DataHeader is the 16-bit data-channel PDU header carrying the
// acknowledgement machinery the injection forges: SN, NESN and MD
// (paper §III-B.6, eq. 6).
type DataHeader struct {
	LLID   LLID
	NESN   bool // next expected sequence number
	SN     bool // sequence number
	MD     bool // more data in this connection event
	Length uint8
}

// DataPDU is a data-channel PDU: header plus payload.
type DataPDU struct {
	Header  DataHeader
	Payload []byte
}

// Empty returns the empty PDU a device sends when it has nothing queued.
func Empty(sn, nesn bool) DataPDU {
	return DataPDU{Header: DataHeader{LLID: LLIDContinuation, SN: sn, NESN: nesn}}
}

// IsEmpty reports whether this is an empty (keep-alive) PDU.
func (p DataPDU) IsEmpty() bool {
	return p.Header.LLID == LLIDContinuation && len(p.Payload) == 0
}

// IsControl reports whether this is an LL control PDU.
func (p DataPDU) IsControl() bool { return p.Header.LLID == LLIDControl }

// Marshal renders the on-air PDU. The header Length field is forced to the
// payload length.
func (p DataPDU) Marshal() []byte {
	return p.AppendTo(make([]byte, 0, 2+len(p.Payload)))
}

// AppendTo appends the on-air PDU to b, as Marshal renders it, and returns
// the extended slice: a caller that reuses one buffer marshals without
// allocating.
func (p DataPDU) AppendTo(b []byte) []byte {
	h0 := byte(p.Header.LLID) & 0x3
	if p.Header.NESN {
		h0 |= 1 << 2
	}
	if p.Header.SN {
		h0 |= 1 << 3
	}
	if p.Header.MD {
		h0 |= 1 << 4
	}
	b = append(b, h0, byte(len(p.Payload)))
	return append(b, p.Payload...)
}

// UnmarshalDataPDU parses a data-channel PDU.
func UnmarshalDataPDU(b []byte) (DataPDU, error) {
	var p DataPDU
	if len(b) < 2 {
		return p, truncatedf("data header needs 2 bytes, have %d", len(b))
	}
	p.Header.LLID = LLID(b[0] & 0x3)
	p.Header.NESN = b[0]&(1<<2) != 0
	p.Header.SN = b[0]&(1<<3) != 0
	p.Header.MD = b[0]&(1<<4) != 0
	p.Header.Length = b[1]
	n := int(b[1])
	if len(b)-2 < n {
		return p, truncatedf("data payload needs %d bytes, have %d", n, len(b)-2)
	}
	if len(b)-2 != n {
		return p, lengthf("data payload %d bytes, header says %d", len(b)-2, n)
	}
	if p.Header.LLID == 0 {
		return p, fmt.Errorf("%w: LLID 0 reserved", ErrUnknownType)
	}
	p.Payload = append([]byte(nil), b[2:2+n]...)
	return p, nil
}

// String implements fmt.Stringer for trace output.
func (p DataPDU) String() string {
	return fmt.Sprintf("Data{%v sn=%t nesn=%t md=%t len=%d}",
		p.Header.LLID, p.Header.SN, p.Header.NESN, p.Header.MD, len(p.Payload))
}
