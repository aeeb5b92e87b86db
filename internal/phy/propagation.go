package phy

import (
	"fmt"
	"math"
)

// DBm is a signal power level in dBm.
type DBm float64

// Milliwatts converts p to linear milliwatts.
func (p DBm) Milliwatts() float64 { return math.Pow(10, float64(p)/10) }

// FromMilliwatts converts linear milliwatts to dBm.
func FromMilliwatts(mw float64) DBm {
	if mw <= 0 {
		return DBm(math.Inf(-1))
	}
	return DBm(10 * math.Log10(mw))
}

// String implements fmt.Stringer.
func (p DBm) String() string { return fmt.Sprintf("%.1fdBm", float64(p)) }

// Default radio characteristics for simulated BLE chips, matching typical
// nRF52-class hardware (the paper's attack dongle is an nRF52840).
const (
	// DefaultTxPower is the default transmit power.
	DefaultTxPower DBm = 0
	// DefaultSensitivity is the weakest signal a receiver can lock onto.
	DefaultSensitivity DBm = -90
	// NoiseFloor is the ambient in-band noise power.
	NoiseFloor DBm = -100
)

// Position is a point in a 2-D floor plan, in metres. The paper's
// experimental setups (equilateral triangle with 2 m edges; attacker moved
// 1–10 m away; wall experiments) are expressed as positions.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance to other, in metres.
func (p Position) Distance(other Position) float64 {
	dx, dy := p.X-other.X, p.Y-other.Y
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (p Position) String() string { return fmt.Sprintf("(%.2f,%.2f)m", p.X, p.Y) }

// Wall is a straight obstacle segment with a fixed penetration loss.
// A typical interior plasterboard/brick wall attenuates 2.4 GHz by 3–10 dB.
type Wall struct {
	A, B Position
	Loss DBm
}

// DefaultWallLoss is a typical interior-wall penetration loss at 2.4 GHz.
const DefaultWallLoss DBm = 7

// Blocks reports whether the segment from p to q crosses the wall.
func (w Wall) Blocks(p, q Position) bool {
	return segmentsIntersect(p, q, w.A, w.B)
}

// segmentsIntersect reports proper or touching intersection of segments
// p1p2 and p3p4 using orientation tests.
func segmentsIntersect(p1, p2, p3, p4 Position) bool {
	d1 := cross(p3, p4, p1)
	d2 := cross(p3, p4, p2)
	d3 := cross(p1, p2, p3)
	d4 := cross(p1, p2, p4)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(p3, p4, p1):
		return true
	case d2 == 0 && onSegment(p3, p4, p2):
		return true
	case d3 == 0 && onSegment(p1, p2, p3):
		return true
	case d4 == 0 && onSegment(p1, p2, p4):
		return true
	}
	return false
}

func cross(a, b, c Position) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

func onSegment(a, b, c Position) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// PathLossModel computes propagation loss between two positions on a
// given channel.
type PathLossModel interface {
	// Loss returns the (positive) attenuation in dB from tx to rx.
	Loss(tx, rx Position, ch Channel) DBm
}

// LogDistance is the classic log-distance path-loss model with free-space
// reference loss at 1 m and optional walls:
//
//	PL(d) = PL₀(f) + 10·n·log₁₀(d/1m) + Σ wall losses
//
// where PL₀(2.44 GHz) ≈ 40.2 dB and n is the path-loss exponent (2 in free
// space, 2–3 indoors).
//
// Pass it by value: boxed as a value in the medium's configuration, it is
// out of reach of world snapshots, so worlds that share one Walls slice
// (every world of a sweep point) never have a restore rewrite it while
// another world reads it.
type LogDistance struct {
	// Exponent is the path-loss exponent n. Zero means 2.0.
	Exponent float64
	// Walls lists obstacle segments crossed lines pay Loss for.
	Walls []Wall
	// MinDistance clamps very small distances (near-field). Zero means 0.1 m.
	MinDistance float64
}

var _ PathLossModel = LogDistance{}

// Loss implements PathLossModel.
func (m LogDistance) Loss(tx, rx Position, ch Channel) DBm {
	n := m.Exponent
	if n == 0 {
		n = 2.0
	}
	minD := m.MinDistance
	if minD == 0 {
		minD = 0.1
	}
	d := tx.Distance(rx)
	if d < minD {
		d = minD
	}
	f := float64(ch.FrequencyMHz())
	// Free-space loss at 1 m: 20·log₁₀(f MHz) − 27.55.
	pl0 := 20*math.Log10(f) - 27.55
	loss := pl0 + 10*n*math.Log10(d)
	for _, w := range m.Walls {
		if w.Blocks(tx, rx) {
			loss += float64(w.Loss)
		}
	}
	return DBm(loss)
}

// ReceivedPower returns the RSSI at rx for a transmission at txPower from tx.
func ReceivedPower(m PathLossModel, txPower DBm, tx, rx Position, ch Channel) DBm {
	return txPower - m.Loss(tx, rx, ch)
}

// PropagationDelay returns the speed-of-light delay over d metres. At BLE
// scales (≤ tens of metres) this is tens of nanoseconds — negligible against
// microsecond protocol timing, but modelled for completeness.
func PropagationDelay(d float64) float64 { // seconds
	const c = 299792458.0
	return d / c
}
