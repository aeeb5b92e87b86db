package crc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// computeBitSerial is the reference CRC: the spec's LFSR stepped one bit at
// a time, each byte least-significant bit first. Compute must agree with it
// on every input.
func computeBitSerial(init uint32, pdu []byte) uint32 {
	lfsr := init & mask
	for _, b := range pdu {
		for bit := 0; bit < 8; bit++ {
			in := uint32(b>>bit) & 1
			fb := (lfsr >> 23) ^ in // bit shifted out XOR input bit
			lfsr = (lfsr << 1) & mask
			if fb != 0 {
				lfsr ^= poly
			}
		}
	}
	return lfsr
}

// TestComputeMatchesBitSerial checks the table-driven Compute against the
// bit-serial reference at every PDU length a BLE frame can carry (0–257
// bytes) and on 200k random (init, pdu) pairs, and that RecoverInit inverts
// it on each.
func TestComputeMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(init uint32, pdu []byte) {
		t.Helper()
		got, want := Compute(init, pdu), computeBitSerial(init, pdu)
		if got != want {
			t.Fatalf("Compute(%#x, % x) = %06X, bit-serial %06X", init, pdu, got, want)
		}
		if back := RecoverInit(got, pdu); back != init&mask {
			t.Fatalf("RecoverInit(Compute(%#x, % x)) = %06X", init, pdu, back)
		}
	}
	buf := make([]byte, 257)
	for n := 0; n <= 257; n++ {
		rng.Read(buf[:n])
		check(rng.Uint32(), buf[:n])
	}
	for i := 0; i < 200_000; i++ {
		n := rng.Intn(len(buf) + 1)
		rng.Read(buf[:n])
		check(rng.Uint32(), buf[:n])
	}
}

func TestComputeDeterministic(t *testing.T) {
	pdu := []byte{0x01, 0x02, 0x03}
	a := Compute(0x555555, pdu)
	b := Compute(0x555555, pdu)
	if a != b {
		t.Fatal("CRC not deterministic")
	}
	if a > 0xFFFFFF {
		t.Fatal("CRC wider than 24 bits")
	}
}

func TestComputeSensitivity(t *testing.T) {
	pdu := []byte{0x40, 0x05, 0x01, 0x02, 0x03, 0x04, 0x05}
	base := Compute(0x123456, pdu)
	// Any single bit flip must change the CRC (linear code, distance ≥ 1).
	for i := 0; i < len(pdu)*8; i++ {
		mod := append([]byte(nil), pdu...)
		mod[i/8] ^= 1 << (i % 8)
		if Compute(0x123456, mod) == base {
			t.Fatalf("bit flip %d undetected", i)
		}
	}
	// Different init must change the CRC.
	if Compute(0x123457, pdu) == base {
		t.Fatal("init change undetected")
	}
}

func TestCheck(t *testing.T) {
	pdu := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	c := Compute(0x555555, pdu)
	if !Check(0x555555, pdu, c) {
		t.Fatal("Check rejects valid CRC")
	}
	if Check(0x555555, pdu, c^1) {
		t.Fatal("Check accepts corrupted CRC")
	}
	// Extra high bits in got must be ignored (24-bit field).
	if !Check(0x555555, pdu, c|0xFF000000) {
		t.Fatal("Check not masking to 24 bits")
	}
}

func TestEmptyPDU(t *testing.T) {
	if Compute(0xABCDEF, nil) != 0xABCDEF {
		t.Fatal("empty PDU should leave LFSR at init")
	}
}

func TestRecoverInitSimple(t *testing.T) {
	init := uint32(0x8E89BE)
	pdu := []byte{0x0F, 0x07, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47}
	crc := Compute(init, pdu)
	if got := RecoverInit(crc, pdu); got != init {
		t.Fatalf("RecoverInit = %06X, want %06X", got, init)
	}
}

// Property: RecoverInit inverts Compute for arbitrary inits and PDUs —
// the sniffer can always recover CRCInit from one clean frame.
func TestRecoverInitProperty(t *testing.T) {
	f := func(init uint32, pdu []byte) bool {
		init &= 0xFFFFFF
		crc := Compute(init, pdu)
		return RecoverInit(crc, pdu) == init
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compute is prefix-composable — running bytes through one at a
// time chains the LFSR state.
func TestComputeComposableProperty(t *testing.T) {
	f := func(init uint32, a, b []byte) bool {
		init &= 0xFFFFFF
		whole := Compute(init, append(append([]byte(nil), a...), b...))
		chained := Compute(Compute(init, a), b)
		return whole == chained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// crcSink keeps the benchmarked calls from being optimised away.
var crcSink uint32

// benchPDU is the size of an ADV_IND with a full 31-byte payload: the
// frame the advertising hot path checks most.
func benchPDU() []byte {
	pdu := make([]byte, 39)
	for i := range pdu {
		pdu[i] = byte(i)
	}
	return pdu
}

func BenchmarkCompute(b *testing.B) {
	pdu := benchPDU()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crcSink = Compute(0x555555, pdu)
	}
}

func BenchmarkComputeBitSerial(b *testing.B) {
	pdu := benchPDU()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crcSink = computeBitSerial(0x555555, pdu)
	}
}
