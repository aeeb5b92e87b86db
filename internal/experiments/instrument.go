package experiments

import (
	"injectable/internal/ble/crc"
	"injectable/internal/injectable"
	"injectable/internal/obs"
	"injectable/internal/pcap"
	"injectable/internal/sim"
)

// Instrumentation threads observability into a scenario or trial world:
// a Link Layer tracer, a metrics/forensics hub and a pcap capture of the
// attacker's sniffer. The zero value disables everything. RunScenario and
// RunEncryptedInjection take it from their callers; sweep and fork
// trials carry only a hub.
type Instrumentation struct {
	// Tracer observes every stack event in the scenario's world.
	Tracer sim.Tracer
	// Obs collects layer metrics and the injection forensics ledger.
	Obs *obs.Hub
	// Pcap receives every packet the attacker's sniffer captures.
	Pcap *pcap.Writer
}

// capturePcap routes the attacker sniffer's packet stream into the pcap
// writer, re-encoding each PDU with the followed connection's CRCInit the
// way cmd/blesim does for its standalone sniffer.
func capturePcap(sn *injectable.Sniffer, pw *pcap.Writer) {
	sn.OnPacket = func(p injectable.SniffedPacket) {
		var aa, crcInit uint32
		if st := sn.State(); st != nil {
			aa = uint32(st.Params.AccessAddress)
			crcInit = st.Params.CRCInit
		}
		raw := p.PDU.Marshal()
		_ = pw.WritePacket(pcap.Packet{
			At:            p.StartAt,
			AccessAddress: aa,
			PDU:           raw,
			CRC:           crc.Compute(crcInit, raw),
		})
	}
}
