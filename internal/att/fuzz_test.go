package att

import (
	"testing"
)

// The ATT server and client parse peer-controlled bytes; neither may panic
// on any input. The fuzz input is a stream of length-prefixed PDUs so the
// engines can explore multi-request state (MTU exchange, queued writes).

// chunks splits a fuzz input into length-prefixed PDUs (max 32 bytes each,
// the interesting ATT sizes all fit).
func chunks(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 && len(out) < 16 {
		n := int(b[0] & 0x1F)
		b = b[1:]
		if n > len(b) {
			n = len(b)
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

func fuzzDB() *DB {
	db := NewDB()
	db.Add(UUID16(0x2800), []byte{0x00, 0x18}, ReadOnly)
	db.Add(UUID16(0x2A00), []byte("fuzz"), ReadWrite)
	db.Add(UUID16(0x2A01), []byte{1, 2}, Permissions{Read: true, ReadRequiresEncryption: true})
	return db
}

func FuzzServerHandlePDU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, byte(OpMTUReq), 64})                      // truncated MTU request
	f.Add([]byte{3, byte(OpReadReq), 2, 0})                   // read handle 2
	f.Add([]byte{7, byte(OpWriteReq), 2, 0, 'a', 'b', 'c'})   // write handle 2
	f.Add([]byte{5, byte(OpFindInfoReq), 1, 0, 0xFF, 0xFF})   // find info sweep
	f.Add([]byte{7, byte(OpReadByTypeReq), 1, 0, 0xFF, 0xFF}) // truncated read-by-type
	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewServer(fuzzDB(), func(rsp []byte) {
			if len(rsp) == 0 {
				t.Fatal("server sent an empty PDU")
			}
		})
		for _, pdu := range chunks(b) {
			s.HandlePDU(pdu)
		}
	})
}

func FuzzClientHandlePDU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, byte(OpMTURsp), 64, 0})
	f.Add([]byte{4, byte(OpReadRsp), 'o', 'k', 0})
	f.Add([]byte{5, byte(OpError), byte(OpReadReq), 2, 0, 0x0A})
	f.Add([]byte{4, byte(OpNotification), 2, 0, 7})
	f.Add([]byte{4, byte(OpIndication), 2, 0, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		c := NewClient(func([]byte) {})
		c.OnNotification = func(handle uint16, value []byte) {}
		c.OnIndication = func(handle uint16, value []byte) {}
		// Cycle through the request kinds so responses land on a pending
		// transaction of every shape.
		arm := []func(){
			func() { c.Read(2, func(Response) {}) },
			func() { c.Write(2, []byte{1}, func(Response) {}) },
			func() { c.ExchangeMTU(64, func(uint16, error) {}) },
			func() { c.FindInformation(1, 0xFFFF, func([]FoundInfo, error) {}) },
			func() { c.ReadByType(1, 0xFFFF, UUID16(0x2A00), func([]TypeValue, error) {}) },
			func() { c.ReadByGroupType(1, 0xFFFF, UUID16(0x2800), func([]GroupValue, error) {}) },
		}
		for i, pdu := range chunks(b) {
			if !c.Busy() {
				arm[i%len(arm)]()
			}
			c.HandlePDU(pdu)
		}
	})
}
