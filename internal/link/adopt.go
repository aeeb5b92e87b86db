package link

import (
	"injectable/internal/ble"
	"injectable/internal/sim"
)

// AdoptionState seeds a connection state machine in the middle of an
// established connection — the attacker tooling uses this to step into a
// hijacked role with the sequence numbers and timing sniffed off the air
// (paper §VI-B/C: after expelling the slave with LL_TERMINATE_IND, or
// after splitting the master off with a forged CONNECTION_UPDATE).
type AdoptionState struct {
	// EventCount is the upcoming connection event counter.
	EventCount uint16
	// SN and NESN seed the local sequence counters.
	SN, NESN bool
	// LastAnchor is the last anchor point observed on air.
	LastAnchor sim.Time
}

// AdoptSlave creates a slave-role connection already synchronised to the
// master's anchors: the impersonation step of scenario B.
func AdoptSlave(stack *Stack, params ConnParams, peer ble.Address, st AdoptionState) (*Conn, error) {
	c, err := newConn(stack, RoleSlave, params, peer)
	if err != nil {
		return nil, err
	}
	c.eventCount = st.EventCount
	c.sn, c.nesn = st.SN, st.NESN
	c.lastAnchor = st.LastAnchor
	c.anchorKnown = true
	c.scheduleNextSlaveWindow()
	return c, nil
}

// AdoptMaster creates a master-role connection that transmits its first
// anchor at firstAnchorAt: the takeover step of scenario C, where the
// attacker becomes the slave's master on the forged post-update schedule.
func AdoptMaster(stack *Stack, params ConnParams, peer ble.Address, st AdoptionState, firstAnchorAt sim.Time) (*Conn, error) {
	c, err := newConn(stack, RoleMaster, params, peer)
	if err != nil {
		return nil, err
	}
	c.eventCount = st.EventCount
	c.sn, c.nesn = st.SN, st.NESN
	c.lastAnchor = st.LastAnchor
	c.anchorKnown = true
	c.scheduleAt(firstAnchorAt, stack.label().adoptedAnchor, c.masterEventBody)
	return c, nil
}
