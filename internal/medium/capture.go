package medium

import (
	"math"

	"injectable/internal/sim"
)

// CaptureModel decides whether a frame a receiver is locked onto survives
// an interfering transmission overlapping its body.
//
// The paper (§V-D) observes that a collision "might not result in a
// corruption when the power of the injected signal is by far superior to
// the power of the legitimate signal", and that survival is otherwise
// possible "depending on the phase difference between the injected and
// legitimate signals". The models here encode that physics at different
// levels of fidelity; the default is PhaseCapture. The ablation benchmarks
// compare models (DESIGN.md §4.1).
type CaptureModel interface {
	// Survives reports whether the locked frame survives an interferer at
	// the given signal-to-interference ratio (dB, positive = wanted frame
	// stronger) overlapping the frame body for the given duration.
	Survives(rng *sim.RNG, sirDB float64, overlap sim.Duration) bool
	// Name identifies the model in benchmark output.
	Name() string
}

// PhaseCapture models FM capture of two constant-envelope GFSK signals.
//
// Two mechanisms combine:
//
//   - Capture: when the wanted signal is much stronger than the interferer
//     the demodulator tracks it throughout the overlap; when much weaker the
//     overlap is hopeless. The crossover is soft (random relative phase and
//     carrier offset), modelled as a logistic in SIR.
//
//   - Phase bursts: near SIR ≈ 0 the two carriers beat against each other
//     (carrier offsets within ±150 kHz → beat periods of several µs).
//     Demodulation errors arrive in bursts during adverse beat phases, so a
//     frame survives if *no* adverse burst lands inside the overlap — a
//     Poisson thinning with rate increasing as SIR falls.
//
// Survival probability:
//
//	P = σ((SIR − FloorSIR)/FloorScale) × exp(−overlap_µs · BurstRate · σ(−SIR/BeatScale))
//
// with σ the logistic function. The defaults are tuned so that the paper's
// measured behaviour is reproduced in shape: at equal power and a ~140 µs
// overlap (the paper's 22-byte frame, Hop Interval 25–150) the per-attempt
// success probability is ≈ 0.3–0.4, giving the observed "median number of
// attempts below 4"; it rises toward 1 when the attacker is closer than the
// master and falls off (with sharply growing variance) at 10 m or behind a
// wall — while remaining non-zero, matching "each tested connection leads
// to a successful injection".
type PhaseCapture struct {
	// BurstRate is the adverse-phase burst rate, per µs, at SIR = 0.
	BurstRate float64
	// BeatScale softens the SIR dependence of the burst rate (dB).
	BeatScale float64
	// FloorSIR is the SIR (dB) below which capture becomes hopeless.
	FloorSIR float64
	// FloorScale softens the floor (dB).
	FloorScale float64
}

// DefaultCaptureModel returns the PhaseCapture tuning used throughout the
// reproduction. It is a value, like every model here: boxed as a value in
// a medium's configuration it is out of reach of world snapshots, so one
// model shared by many worlds is never rewritten by a restore.
func DefaultCaptureModel() PhaseCapture {
	return PhaseCapture{BurstRate: 0.015, BeatScale: 3, FloorSIR: -20, FloorScale: 4}
}

var _ CaptureModel = PhaseCapture{}

// SurvivalProbability returns the closed-form survival probability. Exposed
// so the sensitivity analysis can report the analytic curve next to the
// simulated one.
func (p PhaseCapture) SurvivalProbability(sirDB float64, overlap sim.Duration) float64 {
	if overlap <= 0 {
		return 1
	}
	ovUS := float64(overlap) / float64(sim.Microsecond)
	rate := p.BurstRate * logistic(-sirDB/p.BeatScale)
	floor := logistic((sirDB - p.FloorSIR) / p.FloorScale)
	return floor * math.Exp(-ovUS*rate)
}

// Survives implements CaptureModel.
func (p PhaseCapture) Survives(rng *sim.RNG, sirDB float64, overlap sim.Duration) bool {
	return rng.Bool(p.SurvivalProbability(sirDB, overlap))
}

// Name implements CaptureModel.
func (p PhaseCapture) Name() string { return "phase-capture" }

// Pessimistic corrupts on any body overlap regardless of power — the
// assumption under which Santos et al. dismissed injection as impractical.
type Pessimistic struct{}

var _ CaptureModel = Pessimistic{}

// Survives implements CaptureModel.
func (Pessimistic) Survives(_ *sim.RNG, _ float64, overlap sim.Duration) bool {
	return overlap <= 0
}

// Name implements CaptureModel.
func (Pessimistic) Name() string { return "pessimistic" }

// CoinFlip survives any collision with fixed probability P, ignoring SIR
// and overlap — a power-blind strawman for the ablation study.
type CoinFlip struct{ P float64 }

var _ CaptureModel = CoinFlip{}

// Survives implements CaptureModel.
func (c CoinFlip) Survives(rng *sim.RNG, _ float64, overlap sim.Duration) bool {
	if overlap <= 0 {
		return true
	}
	return rng.Bool(c.P)
}

// Name implements CaptureModel.
func (c CoinFlip) Name() string { return "coin-flip" }

// logistic is the standard logistic function 1/(1+e^−x).
func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
