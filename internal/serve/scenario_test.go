package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/obs"
)

func postScenario(t *testing.T, base, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/scenario"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestScenarioRejectsWithFieldPaths is the structured-error contract:
// an inadmissible spec is rejected at the door — no world, no job — with
// a JSON body whose fields[] pin each failure to a spec path.
func TestScenarioRejectsWithFieldPaths(t *testing.T) {
	s := NewServer(Config{Hub: obs.NewHub()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		path string // expected FieldError path ("" = decode-level error, no fields)
		msg  string // substring the matching msg must contain
	}{
		{
			name: "bad version",
			body: `{"version":7}`,
			path: "version",
			msg:  "unsupported version 7",
		},
		{
			name: "unknown top-level field",
			body: `{"version":1,"devicez":[]}`,
			path: "",
			msg:  "devicez",
		},
		{
			name: "unknown device type",
			body: `{"version":1,"devices":[{"type":"toaster"},{"type":"phone"}]}`,
			path: "devices[0].type",
			msg:  `unknown device type "toaster"`,
		},
		{
			name: "second central",
			body: `{"version":1,"devices":[{"type":"phone"},{"type":"phone"},{"type":"lightbulb"}]}`,
			path: "devices[1].type",
			msg:  "exactly one central",
		},
		{
			name: "interval out of range",
			body: `{"version":1,"conn":{"interval":4000}}`,
			path: "conn.interval",
			msg:  "out of range [6,3200]",
		},
		{
			name: "zero-length wall",
			body: `{"version":1,"walls":[{"a":{"x":1,"y":1},"b":{"x":1,"y":1}}]}`,
			path: "walls[0]",
			msg:  "zero-length wall",
		},
		{
			name: "axis with values and range",
			body: `{"version":1,"sweep":[{"field":"conn.interval","values":[25],"range":{"from":25,"to":50,"step":25}}]}`,
			path: "sweep[0]",
			msg:  "exactly one of values and range",
		},
		{
			name: "unsweepable field",
			body: `{"version":1,"sweep":[{"field":"conn.bogus","values":[1]}]}`,
			path: "sweep[0].field",
			msg:  "conn.bogus",
		},
		{
			name: "point count over limit",
			body: `{"version":1,"sweep":[` +
				`{"field":"conn.interval","range":{"from":6,"to":80,"step":1}},` +
				`{"field":"conn.latency","range":{"from":0,"to":30,"step":1}}]}`,
			path: "sweep",
			msg:  "exceed the limit",
		},
		{
			name: "total sim budget over limit",
			body: `{"version":1,"run":{"sim_seconds":600},` +
				`"sweep":[{"field":"conn.latency","range":{"from":0,"to":200,"step":1}}]}`,
			path: "run.sim_seconds",
			msg:  "admission limit",
		},
		{
			name: "bulb payload without bulb",
			body: `{"version":1,"devices":[{"type":"phone"},{"type":"keyfob"}],"attacker":{"payload":"toggle"}}`,
			path: "attacker.payload",
			msg:  "needs a lightbulb victim",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postScenario(t, ts.URL, "", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d (%s), want 400", resp.StatusCode, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body struct {
				Error  string `json:"error"`
				Fields []struct {
					Path string `json:"path"`
					Msg  string `json:"msg"`
				} `json:"fields"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("error body is not JSON: %v\n%s", err, data)
			}
			if body.Error == "" {
				t.Fatalf("error body missing error message: %s", data)
			}
			if tc.path == "" {
				if len(body.Fields) != 0 {
					t.Errorf("decode-level error grew fields: %s", data)
				}
				if !strings.Contains(body.Error, tc.msg) {
					t.Errorf("error %q missing %q", body.Error, tc.msg)
				}
				return
			}
			found := false
			for _, f := range body.Fields {
				if f.Path == tc.path {
					found = true
					if !strings.Contains(f.Msg, tc.msg) {
						t.Errorf("fields[%q] msg %q missing %q", f.Path, f.Msg, tc.msg)
					}
				}
			}
			if !found {
				t.Errorf("no field error at path %q in %s", tc.path, data)
			}
		})
	}
}

// TestScenarioDedupKeyCanonical: two spellings of the same world — field
// order, explicit defaults, range vs values — must compute one dedup key,
// and a genuinely different world must not.
func TestScenarioDedupKeyCanonical(t *testing.T) {
	spellings := []string{
		`{"version":1,"name":"w","conn":{"interval":36}}`,
		`{"version":1,"name":"w"}`,
		`{"name":"w","version":1,"attacker":{"goal":"inject"}}`,
		`{"version":1,"name":"w","run":{"sim_seconds":120},"seed":{"stride":1000}}`,
	}
	keys := make([]string, 0, len(spellings))
	for _, raw := range spellings {
		spec, err := ScenarioJobSpec([]byte(raw), JobSpec{Trials: 2})
		if err != nil {
			t.Fatalf("spelling %s: %v", raw, err)
		}
		keys = append(keys, spec.Key())
	}
	for i, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("spelling %d key %s != %s", i+1, k, keys[0])
		}
	}
	other, err := ScenarioJobSpec([]byte(`{"version":1,"name":"w","conn":{"interval":50}}`), JobSpec{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if other.Key() == keys[0] {
		t.Error("different worlds share a dedup key")
	}
}

// TestScenarioEndpointServesAndCaches runs a small declarative sweep
// through POST /v1/scenario end to end: the stream must be byte-identical
// to a serial campaign built from the same spec, an equivalent spelling
// must replay from the cache, and X-Job-ID must be set.
func TestScenarioEndpointServesAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	s := NewServer(Config{Hub: obs.NewHub(), TrialWorkers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"version":1,"name":"dsl-smoke","sweep":[{"field":"conn.interval","values":[25,50]}]}`
	resp, data := postScenario(t, ts.URL, "?trials=2&seed_base=7", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Job-ID") == "" {
		t.Error("missing X-Job-ID")
	}

	spec, err := ScenarioJobSpec([]byte(body), JobSpec{Trials: 2, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := DefaultRegistry().Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&ref))}}
	if _, err := runner.Run(camp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref.Bytes()) {
		t.Fatalf("served stream differs from serial campaign:\n%s\n--- vs ---\n%s", data, ref.Bytes())
	}

	// An equivalent spelling (reordered fields, explicit defaults, a range
	// instead of the value list) replays from the cache, byte-identical.
	respell := `{"name":"dsl-smoke","version":1,"run":{"sim_seconds":120},` +
		`"sweep":[{"field":"conn.interval","range":{"from":25,"to":50,"step":25}}]}`
	resp2, data2 := postScenario(t, ts.URL, "?trials=2&seed_base=7", respell)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("equivalent spelling X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data2, data) {
		t.Error("cached replay differs from first stream")
	}

	// A point-range slice of the same spec is its own key and its stream
	// is the matching prefix of the full sweep — the fabric shard contract.
	resp3, data3 := postScenario(t, ts.URL, "?trials=2&seed_base=7&point_count=1", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp3.StatusCode, data3)
	}
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("sliced job X-Cache = %q, want miss", got)
	}
}
