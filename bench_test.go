// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md §3 for the experiment index). Each Fig-9 benchmark iteration
// runs one full injection trial — a fresh world, connection establishment,
// synchronisation and the retry loop — and reports the attacker's attempt
// count as a custom metric, so `go test -bench .` reproduces the paper's
// series alongside the timing data.
package injectable_test

import (
	"fmt"
	"testing"

	"injectable/internal/ble"
	"injectable/internal/ble/pdu"
	"injectable/internal/experiments"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// reportTrialSeries runs one injection trial per iteration and reports the
// mean attempts-before-success.
func reportTrialSeries(b *testing.B, cfg experiments.TrialConfig, seedBase uint64) {
	b.Helper()
	total, failures := 0, 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = seedBase + uint64(i)
		res, err := experiments.RunTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success {
			failures++
			continue
		}
		total += res.Attempts
	}
	if n := b.N - failures; n > 0 {
		b.ReportMetric(float64(total)/float64(n), "attempts/op")
	}
	b.ReportMetric(float64(failures), "failures")
}

// --- Tables I and II ---------------------------------------------------------

func BenchmarkTableIFrameCodec(b *testing.B) {
	p := pdu.DataPDU{Header: pdu.DataHeader{LLID: pdu.LLIDStart}, Payload: make([]byte, 12)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := p.Marshal()
		if _, err := pdu.UnmarshalDataPDU(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIConnectReq(b *testing.B) {
	req := pdu.ConnectReq{
		AccessAddress: 0x71764129, CRCInit: 0x123456, WinSize: 2, WinOffset: 1,
		Interval: 36, Timeout: 100, ChannelMap: ble.AllChannels, Hop: 9,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := req.Marshal()
		p, err := pdu.UnmarshalAdvPDU(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdu.UnmarshalConnectReq(p.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 1–8 --------------------------------------------------------------

func BenchmarkFig1ConnectionEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1ConnectionEvents(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ConnectionUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2ConnectionUpdate(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3AttackOverview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3AttackOverview(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4WindowWidening(b *testing.B) {
	b.ReportAllocs()
	var sink sim.Duration
	for i := 0; i < b.N; i++ {
		sink = link.WindowWidening(50, 20, sim.Duration(36)*ble.ConnUnit)
	}
	_ = sink
}

func BenchmarkFig5InjectionOutcomes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5InjectionOutcomes(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6SlaveHijack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6SlaveHijack(uint64(i) + 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MitM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7MitM(uint64(i) + 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8TopologySetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig8Topology() == nil {
			b.Fatal("nil table")
		}
	}
}

// --- Figure 9, experiment 1: Hop Interval -------------------------------------

func BenchmarkFig9Exp1HopInterval(b *testing.B) {
	bulb, central, attacker := phy.Position{}, phy.Position{X: 2}, phy.Position{X: 1, Y: 1.732}
	for _, interval := range []uint16{25, 50, 75, 100, 125, 150} {
		interval := interval
		b.Run(fmt.Sprintf("interval-%d", interval), func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: interval, Payload: experiments.PayloadPowerOff,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
			}, uint64(interval)*100)
		})
	}
}

// --- Figure 9, experiment 2: payload size --------------------------------------

func BenchmarkFig9Exp2PayloadSize(b *testing.B) {
	bulb, central, attacker := phy.Position{}, phy.Position{X: 2}, phy.Position{X: 1, Y: 1.732}
	for _, payload := range []experiments.Payload{
		experiments.PayloadTerminate, experiments.PayloadToggle,
		experiments.PayloadPowerOff, experiments.PayloadColor,
	} {
		payload := payload
		b.Run(payload.String(), func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: 75, Payload: payload,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
			}, uint64(payload)*1000)
		})
	}
}

// --- Figure 9, experiment 3: distance (and wall) --------------------------------

func BenchmarkFig9Exp3Distance(b *testing.B) {
	for _, d := range []float64{1, 2, 4, 6, 8, 10} {
		d := d
		b.Run(fmt.Sprintf("distance-%gm", d), func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: 36, Payload: experiments.PayloadPowerOff,
				CentralPos:  phy.Position{X: 2},
				AttackerPos: phy.Position{X: -d},
				PhoneGrade:  true,
			}, uint64(d)*10000)
		})
	}
}

func BenchmarkFig9Exp3Wall(b *testing.B) {
	wall := phy.Wall{A: phy.Position{X: -0.5, Y: -10}, B: phy.Position{X: -0.5, Y: 10}, Loss: phy.DefaultWallLoss}
	for _, d := range []float64{2, 4, 6, 8} {
		d := d
		b.Run(fmt.Sprintf("distance-%gm-wall", d), func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: 36, Payload: experiments.PayloadPowerOff,
				CentralPos:  phy.Position{X: 2},
				AttackerPos: phy.Position{X: -d},
				Walls:       []phy.Wall{wall},
				PhoneGrade:  true,
			}, uint64(d)*20000)
		})
	}
}

// --- §VI attack scenarios --------------------------------------------------------

func benchScenario(b *testing.B, name string, seedBase uint64) {
	b.Helper()
	for _, target := range experiments.ScenarioTargets() {
		target := target
		b.Run(target, func(b *testing.B) {
			ok := 0
			for i := 0; i < b.N; i++ {
				out, err := experiments.RunScenario(name, target, seedBase+uint64(i), false, experiments.Instrumentation{})
				if err != nil {
					b.Fatal(err)
				}
				if out.Success {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(b.N), "successRate")
		})
	}
}

func BenchmarkScenarioA(b *testing.B) { benchScenario(b, "scenarioA", 500) }
func BenchmarkScenarioB(b *testing.B) { benchScenario(b, "scenarioB", 600) }
func BenchmarkScenarioC(b *testing.B) { benchScenario(b, "scenarioC", 700) }
func BenchmarkScenarioD(b *testing.B) { benchScenario(b, "scenarioD", 800) }

// --- §IV countermeasure and §VIII IDS ----------------------------------------------

func BenchmarkEncryptedInjection(b *testing.B) {
	dos := 0
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunEncryptedInjection(uint64(i)+900, experiments.Instrumentation{})
		if err != nil {
			b.Fatal(err)
		}
		if out.FeatureTriggered {
			b.Fatal("integrity broken under encryption")
		}
		if out.ConnectionDropped {
			dos++
		}
	}
	b.ReportMetric(float64(dos)/float64(b.N), "dosRate")
}

func BenchmarkIDSDetection(b *testing.B) {
	detected := 0
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunScenario("scenarioA", "lightbulb", uint64(i)+950, true, experiments.Instrumentation{})
		if err != nil {
			b.Fatal(err)
		}
		if out.IDSAlerts["double-frame"]+out.IDSAlerts["anchor-deviation"] > 0 {
			detected++
		}
	}
	b.ReportMetric(float64(detected)/float64(b.N), "detectionRate")
}

// --- baselines and ablations ----------------------------------------------------

func BenchmarkBaselineBTLEJack(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunBTLEJackBaseline(uint64(i) + 970)
		if err != nil {
			b.Fatal(err)
		}
		if out.Success {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "successRate")
}

func BenchmarkAblationCaptureModels(b *testing.B) {
	bulb, central, attacker := phy.Position{}, phy.Position{X: 2}, phy.Position{X: 1, Y: 1.732}
	for _, model := range []medium.CaptureModel{
		medium.DefaultCaptureModel(), medium.Pessimistic{}, medium.CoinFlip{P: 0.35},
	} {
		model := model
		b.Run(model.Name(), func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: 36, Payload: experiments.PayloadPowerOff,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
				Capture: model, MaxAttempts: 40, SimBudget: 60 * sim.Second,
			}, 980000)
		})
	}
}

func BenchmarkAblationAssumedSCA(b *testing.B) {
	bulb, central, attacker := phy.Position{}, phy.Position{X: 2}, phy.Position{X: 1, Y: 1.732}
	for _, ppm := range []float64{5, 20, 100} {
		ppm := ppm
		b.Run(fmt.Sprintf("sca-%.0fppm", ppm), func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: 36, Payload: experiments.PayloadPowerOff,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
				Injector: injectable.InjectorConfig{AssumedSlavePPM: ppm},
			}, 990000)
		})
	}
}

func BenchmarkAblationInjectionTiming(b *testing.B) {
	bulb, central, attacker := phy.Position{}, phy.Position{X: 2}, phy.Position{X: 1, Y: 1.732}
	for _, center := range []bool{false, true} {
		center := center
		name := "window-start"
		if center {
			name = "anchor-center"
		}
		b.Run(name, func(b *testing.B) {
			reportTrialSeries(b, experiments.TrialConfig{
				Interval: 36, Payload: experiments.PayloadPowerOff,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
				Injector:    injectable.InjectorConfig{InjectAtWindowCenter: center},
				MaxAttempts: 40, SimBudget: 60 * sim.Second,
			}, 995000)
		})
	}
}

// BenchmarkKeystrokeInjection runs the §IX extension end-to-end: slave
// hijack, forged keyboard exposure, host attach and typing.
func BenchmarkKeystrokeInjection(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunScenario("keystrokes", "", uint64(i)+1200, false, experiments.Instrumentation{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Success {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "successRate")
}

// BenchmarkIDSValidation measures detection/false-positive classification
// over paired clean and attacked runs.
func BenchmarkIDSValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IDSValidation(experiments.Options{
			TrialsPerPoint: 2, SeedBase: uint64(i)*100 + 5000, Parallel: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
