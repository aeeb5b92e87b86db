// Package crc implements the 24-bit CRC of the BLE Link Layer
// (polynomial x²⁴+x¹⁰+x⁹+x⁶+x⁴+x³+x+1), including the *reverse* LFSR run
// used by sniffers to recover the CRCInit of an established connection from
// captured frames — the technique introduced by Ryan (paper ref. [19]) that
// InjectaBLE's synchronisation step builds upon.
package crc

import "math/bits"

// poly is the CRC-24 feedback polynomial's tap mask, bits 0,1,3,4,6,9,10
// (x²⁴ is implicit).
const poly uint32 = 0x00065B

// mask keeps values to 24 bits.
const mask uint32 = 0xFFFFFF

// table[i] is eight LFSR steps, in reflected register order, from a
// register holding i. Reflecting the register (the fed-back bit 23 moves
// to bit 0) lets a whole byte enter LSB-first, as the spec feeds it, with
// one lookup.
var table = func() (t [256]uint32) {
	rpoly := reflect24(poly)
	for i := range t {
		r := uint32(i)
		for bit := 0; bit < 8; bit++ {
			if r&1 != 0 {
				r = r>>1 ^ rpoly
			} else {
				r >>= 1
			}
		}
		t[i] = r
	}
	return t
}()

// reflect24 reverses the low 24 bits of x and drops the rest.
func reflect24(x uint32) uint32 { return bits.Reverse32(x) >> 8 }

// Compute runs the BLE CRC over pdu, starting from init (24 significant
// bits), processing each byte least-significant bit first, and returns the
// 24-bit CRC in LFSR register order.
//
// The register convention follows the spec: position 0 is shifted out and
// fed back. The transmitted CRC bits are the register read out LSB-first;
// Compute returns the register value so that comparing two Compute results
// is all a receiver needs. It advances one byte per table lookup.
func Compute(init uint32, pdu []byte) uint32 {
	r := reflect24(init)
	for _, b := range pdu {
		r = r>>8 ^ table[byte(r)^b]
	}
	return reflect24(r)
}

// Check reports whether got is the CRC of pdu under init.
func Check(init uint32, pdu []byte, got uint32) bool {
	return Compute(init, pdu) == got&mask
}

// RecoverInit runs the LFSR backwards from a frame's transmitted CRC over
// its PDU, yielding the CRCInit that must have been used. This is how a
// sniffer that missed the CONNECT_REQ recovers the connection's CRCInit
// from any single correctly received data frame.
func RecoverInit(crc uint32, pdu []byte) uint32 {
	lfsr := crc & mask
	for i := len(pdu) - 1; i >= 0; i-- {
		b := pdu[i]
		for bit := 7; bit >= 0; bit-- {
			in := uint32(b>>bit) & 1
			// Invert one forward step: forward did
			//   fb = (old>>23) ^ in
			//   new = (old<<1) & mask, new ^= poly if fb
			// The low bit of new is poly&1 == 1 iff fb was 1.
			fb := lfsr & 1
			if fb != 0 {
				lfsr ^= poly
			}
			lfsr >>= 1
			if fb^in != 0 {
				lfsr |= 1 << 23
			}
		}
	}
	return lfsr
}
