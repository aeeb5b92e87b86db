package experiments

import (
	"strings"
	"testing"
)

// Experiments are expensive; tests use small trial counts and verify the
// paper's qualitative shapes, not absolute numbers.
const testTrials = 8

func TestExperiment1HopIntervalShape(t *testing.T) {
	exp, err := Experiment1HopInterval(Options{TrialsPerPoint: testTrials})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 6 {
		t.Fatalf("%d points", len(exp.Points))
	}
	for _, p := range exp.Points {
		if p.Series.Failures > 0 {
			t.Errorf("interval %s: %d failed injections — paper: always succeeds", p.Label, p.Series.Failures)
		}
		if m := p.Series.Stats.Median(); m > 8 {
			t.Errorf("interval %s: median %v attempts — paper reports < 4", p.Label, m)
		}
	}
	t.Log("\n" + exp.Table().Render())
}

func TestExperiment2PayloadSizeShape(t *testing.T) {
	exp, err := Experiment2PayloadSize(Options{TrialsPerPoint: testTrials})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 4 {
		t.Fatalf("%d points", len(exp.Points))
	}
	for _, p := range exp.Points {
		if p.Series.Failures > 0 {
			t.Errorf("payload %s: %d failures", p.Label, p.Series.Failures)
		}
	}
	// Shape: the shortest payload must not be harder than the longest.
	first := exp.Points[0].Series.Stats.Mean() // 4-byte terminate
	last := exp.Points[3].Series.Stats.Mean()  // 16-byte color
	if first > last+2 {
		t.Errorf("short payload harder than long: %.2f vs %.2f mean attempts", first, last)
	}
	t.Log("\n" + exp.Table().Render())
}

func TestExperiment3DistanceShape(t *testing.T) {
	exp, err := Experiment3Distance(Options{TrialsPerPoint: testTrials})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 6 {
		t.Fatalf("%d points", len(exp.Points))
	}
	// Paper: every position eventually succeeds, including 10 m.
	for _, p := range exp.Points {
		if p.Series.Failures > 0 {
			t.Errorf("distance %s: %d failures — paper: succeeds from every position", p.Label, p.Series.Failures)
		}
	}
	// Shape: attempts grow with distance (compare nearest vs farthest).
	near := exp.Points[0].Series.Stats.Mean()
	far := exp.Points[5].Series.Stats.Mean()
	if far <= near {
		t.Errorf("attempts did not grow with distance: near %.2f vs far %.2f", near, far)
	}
	t.Log("\n" + exp.Table().Render())
}

func TestExperiment3WallShape(t *testing.T) {
	exp, err := Experiment3Wall(Options{TrialsPerPoint: testTrials})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range exp.Points {
		if p.Series.Failures > 0 {
			t.Errorf("wall %s: %d failures — paper: still succeeds behind the wall", p.Label, p.Series.Failures)
		}
	}
	t.Log("\n" + exp.Table().Render())
}

func TestWallCostsMoreAttemptsThanOpenAir(t *testing.T) {
	// Cross-experiment shape: at the same distance the wall adds attempts.
	open, err := Experiment3Distance(Options{TrialsPerPoint: testTrials})
	if err != nil {
		t.Fatal(err)
	}
	wall, err := Experiment3Wall(Options{TrialsPerPoint: testTrials})
	if err != nil {
		t.Fatal(err)
	}
	// open point "E:8m" vs wall point "8m+wall".
	openMean := open.Points[4].Series.Stats.Mean()
	wallMean := wall.Points[3].Series.Stats.Mean()
	if wallMean < openMean {
		t.Errorf("wall (%.2f) not costlier than open air (%.2f) at 8 m", wallMean, openMean)
	}
}

func TestScenarioAAcrossDevices(t *testing.T) {
	for _, target := range ScenarioTargets() {
		out, err := RunScenario("scenarioA", target, 77, false, Instrumentation{})
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if !out.Success {
			t.Errorf("scenario A failed on %s", target)
		}
	}
}

func TestScenarioBOnBulb(t *testing.T) {
	out, err := RunScenario("scenarioB", "lightbulb", 78, false, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Error("scenario B failed")
	}
}

func TestScenarioCOnBulb(t *testing.T) {
	out, err := RunScenario("scenarioC", "lightbulb", 79, false, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Error("scenario C failed")
	}
}

func TestScenarioDOnWatch(t *testing.T) {
	out, err := RunScenario("scenarioD", "smartwatch", 80, false, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Error("scenario D failed")
	}
}

func TestRunScenarioRejectsUnknownNamesAndTargets(t *testing.T) {
	for _, c := range []struct{ name, target, want string }{
		{"scenarioZ", "lightbulb", `unknown scenario "scenarioZ"`},
		{"scenarioA", "", `unknown target ""`},
		{"scenarioB", "toaster", `unknown target "toaster"`},
	} {
		_, err := RunScenario(c.name, c.target, 1, false, Instrumentation{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunScenario(%q, %q): err %v, want %q", c.name, c.target, err, c.want)
		}
	}
}

func TestEncryptedInjectionCountermeasure(t *testing.T) {
	out, err := RunEncryptedInjection(81, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paired {
		t.Fatal("pairing failed")
	}
	if out.FeatureTriggered {
		t.Error("integrity broken: plaintext injection executed on encrypted link")
	}
	if !out.ConnectionDropped {
		t.Error("availability impact missing: MIC failure should drop the link")
	}
}

func TestBTLEJackBaselineComparison(t *testing.T) {
	jam, err := RunBTLEJackBaseline(82)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := RunInjectaBLEMasterHijackComparison(82)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Success {
		t.Error("InjectaBLE master hijack failed")
	}
	if jam.Success {
		// When the jam hijack works, it must be measurably louder.
		if jam.JamBursts == 0 || inj.JamBursts != 0 {
			t.Errorf("stealth comparison broken: jam bursts %d vs %d", jam.JamBursts, inj.JamBursts)
		}
		if jam.IDSJammingAlerts == 0 {
			t.Error("jamming baseline invisible to the IDS")
		}
	}
	if inj.IDSJammingAlerts != 0 {
		t.Error("InjectaBLE raised jamming alerts")
	}
	t.Log("\n" + BaselineTable([]BaselineOutcome{jam, inj}).Render())
}

func TestGATTackerBaselineOnlyPreConnection(t *testing.T) {
	pre, err := RunGATTackerBaseline(83, false)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Success {
		t.Error("GATTacker spoof failed pre-connection — it should work there")
	}
	post, err := RunGATTackerBaseline(83, true)
	if err != nil {
		t.Fatal(err)
	}
	if post.Success {
		t.Error("GATTacker spoof hooked an established connection — the paper's point is it cannot")
	}
}

func TestAblationCaptureModel(t *testing.T) {
	exp, err := AblationCaptureModel(Options{TrialsPerPoint: 5})
	if err != nil {
		t.Fatal(err)
	}
	var phase, pess Point
	for _, p := range exp.Points {
		switch p.Label {
		case "phase-capture":
			phase = p
		case "pessimistic":
			pess = p
		}
	}
	if phase.Series.Failures > 0 {
		t.Error("phase-capture model failed injections in the triangle")
	}
	// Under the pessimistic model injection is (nearly) impossible at
	// interval 36 with a 22-byte frame — Santos et al.'s assumption.
	if pess.Series.Failures < 4 {
		t.Errorf("pessimistic model succeeded %d/5 — should almost always fail", 5-pess.Series.Failures)
	}
	t.Log("\n" + exp.Table().Render())
}

func TestAblationTiming(t *testing.T) {
	exp, err := AblationInjectionTiming(Options{TrialsPerPoint: 5})
	if err != nil {
		t.Fatal(err)
	}
	start, center := exp.Points[0], exp.Points[1]
	if start.Series.Failures > 0 {
		t.Error("window-start timing failed")
	}
	// Firing at the anchor loses the race far more often.
	if center.Series.Failures == 0 && center.Series.Stats.Mean() <= start.Series.Stats.Mean() {
		t.Error("anchor-center timing should be clearly worse")
	}
	t.Log("\n" + exp.Table().Render())
}

func TestHeuristicValidation(t *testing.T) {
	table, err := HeuristicValidation(Options{TrialsPerPoint: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.Render(), "100.0%") {
		// Perfect agreement is expected in simulation; log if not.
		t.Logf("heuristic below 100%%:\n%s", table.Render())
	}
}

func TestFigureTables(t *testing.T) {
	if got := TableIFrameFormat().Render(); !strings.Contains(got, "176µs") {
		t.Errorf("Table I missing air-time note:\n%s", got)
	}
	tII := TableIIConnectReq().Render()
	if !strings.Contains(tII, "34 bytes") {
		t.Errorf("Table II total wrong:\n%s", tII)
	}
	fig4 := Fig4WindowWidening().Render()
	if !strings.Contains(fig4, "32µs") && !strings.Contains(fig4, "32.") {
		t.Errorf("fig4 missing the widening floor:\n%s", fig4)
	}

	fig1, err := Fig1ConnectionEvents(90)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig1.Rows) != 4 {
		t.Errorf("fig1 rows = %d", len(fig1.Rows))
	}

	fig2, err := Fig2ConnectionUpdate(91)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig2.Render(), "new interval") {
		t.Errorf("fig2 missing new interval:\n%s", fig2.Render())
	}

	fig5, err := Fig5InjectionOutcomes(92)
	if err != nil {
		t.Fatal(err)
	}
	r := fig5.Render()
	if !strings.Contains(r, "a) no collision") || !strings.Contains(r, "c) master first") {
		t.Errorf("fig5 incomplete:\n%s", r)
	}
	t.Log("\n" + r)
}

func TestFig3Fig6Fig7(t *testing.T) {
	fig3, err := Fig3AttackOverview(93)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig3.Render(), "T_IFS") {
		t.Errorf("fig3:\n%s", fig3.Render())
	}
	fig6, err := Fig6SlaveHijack(94)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig6.Render(), "true") {
		t.Errorf("fig6:\n%s", fig6.Render())
	}
	fig7, err := Fig7MitM(95)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig7.Render(), "true") {
		t.Errorf("fig7:\n%s", fig7.Render())
	}
}

func TestFig8Topology(t *testing.T) {
	r := Fig8Topology().Render()
	if !strings.Contains(r, "equilateral") {
		t.Errorf("fig8:\n%s", r)
	}
}

func TestStatsMath(t *testing.T) {
	var s Stats
	for _, v := range []int{1, 2, 3, 4, 100} {
		s.Add(v)
	}
	if s.N() != 5 || s.Min() != 1 || s.Max() != 100 {
		t.Fatal("basic stats wrong")
	}
	if s.Median() != 3 {
		t.Fatalf("median = %f", s.Median())
	}
	if s.Mean() != 22 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.Variance() < 1900 || s.Variance() > 1910 {
		t.Fatalf("variance = %f", s.Variance())
	}
	if s.Boxplot(24) == "" {
		t.Fatal("empty boxplot")
	}
	var empty Stats
	if empty.Boxplot(24) != "" {
		t.Fatal("boxplot of empty stats")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "test",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := tb.Render()
	for _, want := range []string{"== test ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPayloadPDULens(t *testing.T) {
	// The experiment sweep must match the paper's PDU sizes exactly.
	want := map[Payload]int{PayloadTerminate: 4, PayloadToggle: 9, PayloadPowerOff: 14, PayloadColor: 16}
	for p, n := range want {
		if p.PDULen() != n {
			t.Errorf("%v PDULen = %d, want %d", p, p.PDULen(), n)
		}
		frame := p.frame(6)
		if got := len(frame.Marshal()); got != n {
			t.Errorf("%v marshals to %d bytes, want %d", p, got, n)
		}
	}
}

func TestScenarioKeystrokes(t *testing.T) {
	out, err := RunScenario("keystrokes", "", 85, false, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Error("keystroke injection failed")
	}
}

func TestIDSValidationRates(t *testing.T) {
	table, err := IDSValidation(Options{TrialsPerPoint: 6, SeedBase: 3000})
	if err != nil {
		t.Fatal(err)
	}
	r := table.Render()
	if !strings.Contains(r, "TPR") {
		t.Fatalf("table:\n%s", r)
	}
	// Expect full detection and no false positives at these settings.
	if !strings.Contains(r, "100%") {
		t.Errorf("TPR below 100%%:\n%s", r)
	}
	if !strings.Contains(r, "0%") {
		t.Errorf("FPR above 0%%:\n%s", r)
	}
}

func TestAblationAdaptiveGuard(t *testing.T) {
	exp, err := AblationAdaptiveGuard(Options{TrialsPerPoint: 5})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, frozen := exp.Points[0], exp.Points[1]
	if adaptive.Series.Failures > 0 {
		t.Error("adaptive guard failed injections")
	}
	// The frozen variant with a deliberately early fire must be clearly
	// worse (failures or far more attempts).
	if frozen.Series.Failures == 0 && frozen.Series.Stats.Mean() <= adaptive.Series.Stats.Mean()+1 {
		t.Errorf("guard adaptation shows no benefit: %.1f vs %.1f",
			frozen.Series.Stats.Mean(), adaptive.Series.Stats.Mean())
	}
	t.Log("\n" + exp.Table().Render())
}

// TestScenarioSoak runs every scenario across several seeds — the
// regression net for attack-chain stability. Skipped with -short.
func TestScenarioSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, name := range []string{"scenarioA", "scenarioB", "scenarioC", "scenarioD"} {
		for seed := uint64(7000); seed < 7005; seed++ {
			out, err := RunScenario(name, "lightbulb", seed, false, Instrumentation{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !out.Success {
				t.Errorf("%s seed %d failed", name, seed)
			}
		}
	}
	for seed := uint64(7100); seed < 7105; seed++ {
		out, err := RunScenario("keystrokes", "", seed, false, Instrumentation{})
		if err != nil {
			t.Fatalf("keystrokes seed %d: %v", seed, err)
		}
		if !out.Success {
			t.Errorf("keystrokes seed %d failed", seed)
		}
	}
}

func TestWideningReductionCountermeasure(t *testing.T) {
	outs, err := WideningReduction(Options{TrialsPerPoint: 6, SeedBase: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("%d scales", len(outs))
	}
	base, tight := outs[0], outs[len(outs)-1]
	// At spec widening the attack succeeds; at 0.1× it must be much harder.
	if base.InjectionFailures > 0 {
		t.Errorf("baseline widening blocked %d injections", base.InjectionFailures)
	}
	if tight.InjectionFailures == 0 && tight.AttackStats.Mean() <= base.AttackStats.Mean()+1 {
		t.Errorf("shrunk window shows no defensive effect: %+v", tight)
	}
	// And the paper's warned cost: reliability degrades as windows shrink.
	if tight.CleanMissRate < base.CleanMissRate {
		t.Errorf("no reliability cost measured: %.3f vs %.3f", tight.CleanMissRate, base.CleanMissRate)
	}
	t.Log("\n" + WideningReductionTable(outs, 6).Render())
}

func TestAppLayerCryptoAntiPattern(t *testing.T) {
	out, err := RunAppLayerCrypto(8100)
	if err != nil {
		t.Fatal(err)
	}
	if out.WriteInjectionExecuted {
		t.Error("app-layer MAC failed to stop the forged write")
	}
	if !out.SlaveHijacked {
		t.Error("LL_TERMINATE_IND should bypass GATT-layer crypto")
	}
	if !out.MasterStillServed {
		t.Error("attacker failed to serve the master post-hijack")
	}
	t.Log("\n" + AppLayerCryptoTable(out).Render())
}
