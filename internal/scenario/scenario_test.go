package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func decode(t *testing.T, src string) Spec {
	t.Helper()
	s, err := DecodeSpec([]byte(src))
	if err != nil {
		t.Fatalf("DecodeSpec(%s): %v", src, err)
	}
	return s
}

func TestDecodeSpecStrict(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"version":1,"bogus":3}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeSpec([]byte(`{"version":1} {"version":1}`)); err == nil {
		t.Error("trailing data accepted")
	}
	big := `{"version":1,"name":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	if _, err := DecodeSpec([]byte(big)); err == nil {
		t.Error("oversize spec accepted")
	}
	s := decode(t, `{"version":1,"name":"ok"}`)
	if s.Version != 1 || s.Name != "ok" {
		t.Errorf("decoded %+v", s)
	}
}

func TestExpandCrossProduct(t *testing.T) {
	s := decode(t, `{"version":1,"sweep":[
		{"field":"conn.interval","values":[25,50],"labels":["a","b"]},
		{"field":"conn.latency","values":[0,3]}]}`)
	vs, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{"a,0", "a,3", "b,0", "b,3"}
	if len(vs) != len(wantLabels) {
		t.Fatalf("%d variants, want %d", len(vs), len(wantLabels))
	}
	for i, v := range vs {
		if v.Label != wantLabels[i] {
			t.Errorf("variant %d label %q, want %q", i, v.Label, wantLabels[i])
		}
	}
	// First axis slowest: variant 1 keeps interval 25, moves latency to 3.
	if vs[1].Spec.Conn.Interval != 25 || vs[1].Spec.Conn.Latency != 3 {
		t.Errorf("variant 1 conn = %+v", vs[1].Spec.Conn)
	}
	if vs[2].Spec.Conn.Interval != 50 || vs[2].Spec.Conn.Latency != 0 {
		t.Errorf("variant 2 conn = %+v", vs[2].Spec.Conn)
	}
	// The base spec is untouched by expansion.
	if s.Conn != nil {
		t.Error("expansion mutated the input spec")
	}
}

func TestExpandRangeAndSweeplessDefault(t *testing.T) {
	s := decode(t, `{"version":1,"sweep":[{"field":"attacker.delay_ms","range":{"from":0,"to":400,"step":200}}]}`)
	vs, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0].Label != "0" || vs[2].Label != "400" {
		t.Fatalf("range variants %+v", vs)
	}
	if vs[2].Spec.Attacker.DelayMS != 400 {
		t.Errorf("variant 2 delay = %d", vs[2].Spec.Attacker.DelayMS)
	}

	plain, err := Expand(decode(t, `{"version":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Label != "all" {
		t.Fatalf("sweepless expansion %+v", plain)
	}
}

func TestCanonicalEquivalentSpellings(t *testing.T) {
	spellings := []string{
		`{"version":1,"name":"w"}`,
		`{"name":"w","version":1,"conn":{"interval":36}}`,
		`{"version":1,"name":"w","attacker":{"goal":"inject"},"run":{"sim_seconds":120}}`,
		`{"version":1,"name":"w","seed":{"stride":1000},"walls":[]}`,
	}
	var first []byte
	for i, src := range spellings {
		enc, err := CanonicalBytes([]byte(src))
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		if first == nil {
			first = enc
			continue
		}
		if !bytes.Equal(enc, first) {
			t.Errorf("spelling %d canonical %s != %s", i, enc, first)
		}
	}

	// Range and explicit values of the same axis are one world.
	a, err := CanonicalBytes([]byte(`{"version":1,"sweep":[{"field":"conn.interval","values":[25,50,75]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalBytes([]byte(`{"version":1,"sweep":[{"field":"conn.interval","range":{"from":25,"to":75,"step":25}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("range spelling canonicalizes to %s, values spelling to %s", b, a)
	}

	// Canonicalization is a fixpoint.
	again, err := CanonicalBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, a) {
		t.Errorf("canonical not idempotent: %s -> %s", a, again)
	}
}

// TestValidateAdmissionLimits: over-limit specs are rejected by pure
// spec arithmetic — no world, no campaign, no simulation is built.
func TestValidateAdmissionLimits(t *testing.T) {
	cases := []struct {
		name string
		src  string
		lim  Limits
		path string
	}{
		{
			name: "device count",
			src: `{"version":1,"devices":[{"type":"phone"},{"type":"lightbulb"},
				{"type":"keyfob"},{"type":"keyfob"}]}`,
			lim:  Limits{MaxDevices: 3, MaxWalls: 8, MaxAxes: 4, MaxPoints: 256, MaxSimSeconds: 600, MaxTotalSimSeconds: 1e6},
			path: "devices",
		},
		{
			name: "point count",
			src:  `{"version":1,"sweep":[{"field":"conn.interval","range":{"from":6,"to":300,"step":1}}]}`,
			lim:  DefaultLimits,
			path: "sweep",
		},
		{
			name: "axis count",
			src: `{"version":1,"sweep":[
				{"field":"conn.interval","values":[25]},
				{"field":"conn.latency","values":[0]},
				{"field":"conn.hop","values":[7]},
				{"field":"traffic.activity_ms","values":[100]},
				{"field":"attacker.delay_ms","values":[0]}]}`,
			lim:  DefaultLimits,
			path: "sweep",
		},
		{
			name: "total sim budget",
			src:  `{"version":1,"run":{"sim_seconds":600},"sweep":[{"field":"conn.latency","range":{"from":0,"to":199,"step":1}}]}`,
			lim:  DefaultLimits,
			path: "run.sim_seconds",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(decode(t, tc.src), 25, tc.lim)
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Validate = %v, want *ValidationError", err)
			}
			for _, f := range verr.Fields {
				if f.Path == tc.path {
					return
				}
			}
			t.Errorf("no failure at path %q in %v", tc.path, verr.Fields)
		})
	}

	// The same budget passes when the trial count shrinks: the limit is
	// on points × trials × seconds, not any one factor.
	budget := decode(t, `{"version":1,"run":{"sim_seconds":600},"sweep":[{"field":"conn.latency","range":{"from":0,"to":199,"step":1}}]}`)
	if err := Validate(budget, 1, DefaultLimits); err != nil {
		t.Errorf("200 points × 1 trial × 600 s rejected: %v", err)
	}
}

// TestValidateSweptVariantBounds: a sweep that drives a field out of its
// scalar range is caught on the expanded point, with a point-scoped path.
func TestValidateSweptVariantBounds(t *testing.T) {
	s := decode(t, `{"version":1,"sweep":[{"field":"conn.interval","values":[36,9999]}]}`)
	err := Validate(s, 2, DefaultLimits)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("Validate = %v, want *ValidationError", err)
	}
	found := false
	for _, f := range verr.Fields {
		if f.Path == "sweep.points[1].conn.interval" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected failure at sweep.points[1].conn.interval, got %v", verr.Fields)
	}
}
