package experiments

import (
	"fmt"

	"injectable/internal/campaign"
	"injectable/internal/devices"
	"injectable/internal/injectable"
	"injectable/internal/link"
	"injectable/internal/sim"
)

// WideningReductionOutcome reports one point of the §VIII widening-
// reduction countermeasure sweep: attack difficulty versus baseline
// connection reliability at a given window scale.
type WideningReductionOutcome struct {
	Scale float64
	// Attack metrics over n attacked connections.
	InjectionFailures int
	AttackStats       Stats
	// Reliability metric over n clean connections: fraction of slave
	// events missed (the paper's warned "side effects on the reliability
	// and stability").
	CleanMissRate float64
	// CleanDrops counts clean connections that died within the window.
	CleanDrops int
}

// cleanOutcome is one clean-reliability run's measurement.
type cleanOutcome struct {
	Missed, Total int
	Dropped       bool
}

// WideningReduction sweeps the slave's receive-window scale (the paper's
// first countermeasure: "reducing the duration of the widening windows")
// and measures both how much harder injection gets and what it costs in
// legitimate reliability. Each scale contributes TrialsPerPoint attacked
// and TrialsPerPoint clean connections, all run as one campaign.
func WideningReduction(opts Options) ([]WideningReductionOutcome, error) {
	opts.applyDefaults()
	n := opts.TrialsPerPoint
	scales := []float64{1.0, 0.5, 0.25, 0.1}
	spec := &campaign.Spec{Name: "widening-reduction", SeedBase: opts.SeedBase}
	out := make([]WideningReductionOutcome, len(scales))
	stepOf := make(map[string]int, 2*len(scales))
	missed := make([]int, len(scales))
	total := make([]int, len(scales))
	for step, scale := range scales {
		out[step].Scale = scale
		scale := scale
		attackLabel := fmt.Sprintf("attack@%.2f", scale)
		cleanLabel := fmt.Sprintf("clean@%.2f", scale)
		stepOf[attackLabel], stepOf[cleanLabel] = step, step
		attackBase := opts.SeedBase + uint64(step*1000)
		cleanBase := opts.SeedBase + uint64(step*1000+500)
		spec.Points = append(spec.Points,
			campaign.Point{
				Label: attackLabel, Trials: n,
				Seed: func(i int) uint64 { return attackBase + uint64(i) },
				Run: func(t campaign.Trial) (any, error) {
					return runScaledTrial(t.Seed, scale)
				},
			},
			campaign.Point{
				Label: cleanLabel, Trials: n,
				Seed: func(i int) uint64 { return cleanBase + uint64(i) },
				Run: func(t campaign.Trial) (any, error) {
					m, tt, dropped, err := runCleanScaled(t.Seed, scale)
					if err != nil {
						return nil, err
					}
					return cleanOutcome{Missed: m, Total: tt, Dropped: dropped}, nil
				},
			})
	}
	collect := campaign.OnResult(func(r campaign.Result) {
		if r.Err != nil {
			return
		}
		step := stepOf[r.Point]
		switch v := r.Value.(type) {
		case TrialResult:
			if v.Success {
				out[step].AttackStats.Add(v.Attempts)
			} else {
				out[step].InjectionFailures++
			}
		case cleanOutcome:
			missed[step] += v.Missed
			total[step] += v.Total
			if v.Dropped {
				out[step].CleanDrops++
			}
		}
		opts.progress(r.Point, r.Index)
	})
	if _, err := opts.runner(collect).Run(spec); err != nil {
		return nil, err
	}
	for step := range out {
		if total[step] > 0 {
			out[step].CleanMissRate = float64(missed[step]) / float64(total[step])
		}
	}
	return out, nil
}

// scaledConfig is the widening-reduction world: the bulb's receive window
// scaled, the central at Hop Interval 36, at most 60 injection attempts.
func scaledConfig(seed uint64, scale float64) TrialConfig {
	return TrialConfig{Seed: seed, WideningScale: scale, MaxAttempts: 60}.WithDefaults()
}

// runScaledTrial is one injection trial with a widening-scaled slave.
func runScaledTrial(seed uint64, scale float64) (TrialResult, error) {
	tw, err := BuildTrialWorld(scaledConfig(seed, scale), Instrumentation{})
	if err != nil {
		return TrialResult{}, err
	}
	if err := tw.Connect(nil); err != nil {
		return TrialResult{}, err
	}
	if tw.linkErr() != nil {
		// An over-shrunk window may break even connection setup — that is
		// the countermeasure's cost, reported as an injection failure with
		// a dead connection.
		return TrialResult{}, nil
	}
	handle, value := tw.featureWrite()
	var rep *injectable.Report
	if err := tw.Atk.InjectWrite(handle, value, func(r injectable.Report) { rep = &r }); err != nil {
		return TrialResult{}, err
	}
	tw.W.RunFor(60 * sim.Second)
	if rep == nil {
		return TrialResult{}, fmt.Errorf("experiments: scaled trial did not settle")
	}
	return TrialResult{Success: rep.Success && tw.featureShown(), Attempts: rep.AttemptCount()}, nil
}

// runCleanScaled measures a clean connection's slave miss rate under the
// scaled window. The attacker stays idle and the handshake is 2 s.
func runCleanScaled(seed uint64, scale float64) (missed, total int, dropped bool, err error) {
	tw, err := BuildTrialWorld(scaledConfig(seed, scale), Instrumentation{})
	if err != nil {
		return 0, 0, false, err
	}
	tw.Peripheral.StartAdvertising()
	tw.Phone.Connect(tw.Peripheral.Device.Address())
	tw.W.RunFor(2 * sim.Second)
	conn := tw.Peripheral.Conn()
	if conn == nil {
		return 0, 1, true, nil
	}
	conn.OnEvent = func(e link.EventInfo) {
		total++
		if e.Missed {
			missed++
		}
	}
	tw.W.RunFor(20 * sim.Second)
	dropped = !tw.Phone.Central.Connected() || !tw.Peripheral.Connected()
	return missed, total, dropped, nil
}

// WideningReductionTable renders the sweep.
func WideningReductionTable(outs []WideningReductionOutcome, n int) *Table {
	t := &Table{
		Title: "§VIII countermeasure — shrinking the receive-window widening",
		Header: []string{"window scale", "injection failures", "mean attempts (when successful)",
			"clean miss rate", "clean drops"},
		Notes: []string{
			fmt.Sprintf("%d attacked + %d clean connections per scale", n, n),
			"paper: smaller windows mechanically reduce injection success, at the cost of link stability",
		},
	}
	for _, o := range outs {
		mean := "-"
		if o.AttackStats.N() > 0 {
			mean = fmt.Sprintf("%.2f", o.AttackStats.Mean())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", o.Scale),
			fmt.Sprintf("%d/%d", o.InjectionFailures, n),
			mean,
			fmt.Sprintf("%.1f%%", 100*o.CleanMissRate),
			fmt.Sprintf("%d/%d", o.CleanDrops, n),
		})
	}
	return t
}

// AppLayerCryptoOutcome demonstrates the §VIII anti-pattern: application-
// layer payload authentication stops scenario A but not the LL-control
// attacks.
type AppLayerCryptoOutcome struct {
	// WriteInjectionExecuted: did a forged vendor write execute? (must be
	// false — the app layer rejects unauthenticated payloads).
	WriteInjectionExecuted bool
	// SlaveHijacked: did LL_TERMINATE_IND still expel the device? (true —
	// LL control frames are not covered by GATT-layer crypto).
	SlaveHijacked bool
	// MasterStillServed: the attacker serves the master after the hijack.
	MasterStillServed bool
}

// RunAppLayerCrypto models a vendor that authenticates its GATT payloads
// (a MAC the attacker cannot forge) instead of enabling LL encryption.
func RunAppLayerCrypto(seed uint64) (AppLayerCryptoOutcome, error) {
	var out AppLayerCryptoOutcome
	tw, err := scenarioWorld("lightbulb", seed, false, Instrumentation{})
	if err != nil {
		return out, err
	}
	// Application-layer authentication: the bulb ignores command payloads
	// lacking the vendor MAC (which the attacker cannot compute).
	authenticated := func(v []byte) bool {
		return len(v) > 2 && v[len(v)-1] == 0xA7 && v[len(v)-2] == 0x55
	}
	executed := false
	tw.Peripheral.GATT.FindCharacteristic(devices.UUIDBulbControl).OnWrite = func(v []byte) {
		if authenticated(v) {
			executed = true
		}
	}

	// Scenario A against the protected payload: the write lands but the
	// application discards it.
	handle, value := tw.featureWrite()
	var rep *injectable.Report
	if err := tw.Atk.InjectWrite(handle, value, func(r injectable.Report) { rep = &r }); err != nil {
		return out, err
	}
	tw.W.RunFor(40 * sim.Second)
	out.WriteInjectionExecuted = executed
	if rep == nil || !rep.Success {
		return out, fmt.Errorf("experiments: injection itself failed")
	}

	// Scenario B still works: LL control frames bypass GATT-layer crypto.
	var hijack *injectable.SlaveHijack
	err = tw.Atk.HijackSlave(forgedNameServer(), func(h *injectable.SlaveHijack, e error) {
		if e == nil {
			hijack = h
		}
	})
	if err != nil {
		return out, err
	}
	tw.W.RunFor(40 * sim.Second)
	out.SlaveHijacked = hijack != nil && !tw.Peripheral.Connected()
	out.MasterStillServed = tw.Phone.Central.Connected()
	return out, nil
}

// AppLayerCryptoTable renders the anti-pattern demonstration.
func AppLayerCryptoTable(o AppLayerCryptoOutcome) *Table {
	return &Table{
		Title:  "§VIII anti-pattern — application-layer crypto instead of LL encryption",
		Header: []string{"forged write executed", "slave still hijacked", "master served by attacker"},
		Rows: [][]string{{
			fmt.Sprintf("%t (app MAC rejected it)", o.WriteInjectionExecuted),
			fmt.Sprintf("%t (LL_TERMINATE_IND is not covered)", o.SlaveHijacked),
			fmt.Sprintf("%t", o.MasterStillServed),
		}},
		Notes: []string{
			"paper: \"we strongly advise against this solution, since in this case the LL control",
			"frames will not be encrypted\"",
		},
	}
}
