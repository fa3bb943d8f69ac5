package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/faults"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/sensor"
)

// testSpec is a small sweep over light apps: 2 mixes x 2 schemes x 2 QoS
// multipliers = 8 scenarios, windows=1, computations skipped for speed.
func testSpec() Spec {
	return Spec{
		Seed: 7,
		Grid: &Grid{
			Apps:           [][]apps.ID{{apps.StepCounter}, {apps.M2X}},
			Schemes:        []string{"baseline", "batching"},
			Windows:        []int{1},
			QoS:            []float64{0.5, 1},
			SkipAppCompute: true,
		},
	}
}

func TestExpandOrderAndSeeds(t *testing.T) {
	spec := testSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 8 {
		t.Fatalf("expanded to %d scenarios, want 8", len(scens))
	}
	// Fixed nesting: apps outermost, then schemes, windows, qos, faults.
	wantFirst := []string{
		"A2/Baseline/w1/q0.5", "A2/Baseline/w1", "A2/Batching/w1/q0.5", "A2/Batching/w1",
		"A4/Baseline/w1/q0.5", "A4/Baseline/w1",
	}
	for i, want := range wantFirst {
		if got := scens[i].Label(); got != want {
			t.Errorf("scenario %d = %s, want %s", i, got, want)
		}
	}
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		if scens[i].Seed == 0 {
			t.Errorf("scenario %d has no derived seed", i)
		}
		if scens[i].Seed != again[i].Seed {
			t.Errorf("scenario %d seed unstable: %d vs %d", i, scens[i].Seed, again[i].Seed)
		}
		if scens[i].Seed != ScenarioSeed(spec.Seed, i) {
			t.Errorf("scenario %d seed %d != ScenarioSeed %d", i, scens[i].Seed, ScenarioSeed(spec.Seed, i))
		}
	}
	// Explicit scenarios keep a nonzero seed verbatim and derive a zero one.
	spec.Scenarios = []hub.Scenario{
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.COM, Windows: 1, Seed: 99},
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.COM, Windows: 1},
	}
	scens, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if scens[8].Seed != 99 {
		t.Errorf("explicit seed overwritten: %d", scens[8].Seed)
	}
	if scens[9].Seed != ScenarioSeed(spec.Seed, 9) {
		t.Errorf("zero-seed explicit scenario got %d, want derived %d", scens[9].Seed, ScenarioSeed(spec.Seed, 9))
	}
}

// TestExpandRejects pins that Expand refuses, with a fleet: error, a spec no
// worker could run: an explicit scenario with no scheme is named by its index
// in the list, as a bad grid scheme is by its axis.
func TestExpandRejects(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{`{"seed":1,"scenarios":[{"apps":["A2"],"windows":1}]}`, "fleet: scenario 0: "},
		{`{"seed":1,"scenarios":[{"apps":["A2"],"scheme":"com","windows":1},{"apps":["A2"],"windows":1}]}`, "fleet: scenario 1: "},
		{`{"seed":1,"grid":{"apps":[["A2"]],"schemes":["turbo"],"windows":[1]}}`, "fleet: grid: "},
		{`{"seed":1,"grid":{"apps":[["A2"]],"schemes":["baseline"],"windows":[0]}}`, "fleet: grid: windows 0"},
		{`{"seed":1}`, "fleet: spec expands to no scenarios"},
	} {
		spec, err := ParseSpec(strings.NewReader(tc.spec))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", tc.spec, err)
		}
		if _, err := spec.Expand(); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Expand(%s) err = %v, want prefix %q", tc.spec, err, tc.want)
		}
	}
}

// TestExpandMeterAxis pins the meters grid axis: it nests innermost, the
// zero model expands to a meter-free scenario (so old grids are unchanged),
// and an armed model lands in the label and survives spec JSON.
func TestExpandMeterAxis(t *testing.T) {
	spec := testSpec()
	spec.Grid.QoS = []float64{1}
	spec.Grid.Meters = []obs.MeterModel{{}, obs.Insitu(100)}
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 8 {
		t.Fatalf("expanded to %d scenarios, want 8 (2 mixes x 2 schemes x 2 meters)", len(scens))
	}
	wantFirst := []string{
		"A2/Baseline/w1", "A2/Baseline/w1/m100",
		"A2/Batching/w1", "A2/Batching/w1/m100",
	}
	for i, want := range wantFirst {
		if got := scens[i].Label(); got != want {
			t.Errorf("scenario %d = %s, want %s", i, got, want)
		}
	}
	if scens[0].Meter != nil {
		t.Errorf("zero meter model should expand meter-free, got %+v", scens[0].Meter)
	}
	if scens[1].Meter == nil || scens[1].Meter.RateHz != 100 {
		t.Errorf("armed meter lost in expansion: %+v", scens[1].Meter)
	}
	// The meter axis round-trips through spec JSON.
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	rescens, err := back.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		if scens[i].Label() != rescens[i].Label() {
			t.Errorf("scenario %d label changed across spec JSON: %s vs %s", i, scens[i].Label(), rescens[i].Label())
		}
	}
}

func TestLoadSpecSmoke(t *testing.T) {
	spec, err := LoadSpec("testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 8 {
		t.Errorf("smoke spec expands to %d scenarios, want 8", len(scens))
	}
}

// The tentpole determinism guarantee: the same spec aggregates to
// byte-identical state no matter how many workers raced over it.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	one, err := Run(testSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(testSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one.Completed != 8 || four.Completed != 8 {
		t.Fatalf("completed %d / %d, want 8 / 8", one.Completed, four.Completed)
	}
	if a, b := one.Agg.Fingerprint(), four.Agg.Fingerprint(); a != b {
		t.Errorf("aggregates diverge across worker counts: %s vs %s", a, b)
	}
	key := "Baseline/total"
	ma, mb := one.Agg.Metric(key), four.Agg.Metric(key)
	if ma == nil || mb == nil {
		t.Fatalf("missing %s aggregate (keys %v)", key, one.Agg.Keys())
	}
	if ma.Mean() != mb.Mean() || ma.Quantile(0.95) != mb.Quantile(0.95) {
		t.Errorf("%s: mean %v/%v p95 %v/%v", key, ma.Mean(), mb.Mean(), ma.Quantile(0.95), mb.Quantile(0.95))
	}
	if ma.Count() != 4 {
		t.Errorf("%s count = %d, want 4 (2 mixes x 2 qos)", key, ma.Count())
	}
}

// Any scenario lifted out of the fleet re-runs standalone with identical
// metrics: seeds derive from (fleet seed, index) alone.
func TestStandaloneReplayMatchesFleet(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	journal := filepath.Join(dir, "fleet.jsonl")
	if _, err := Run(spec, Options{Workers: 3, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := replayOnly(t, journal)
	if err != nil {
		t.Fatal(err)
	}
	done := journalRecords(t, journal)
	if len(done) != len(scens) || replay.Resumed != len(scens) {
		t.Fatalf("journal holds %d scenarios (%d replayed), want %d", len(done), replay.Resumed, len(scens))
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Warnings) != 0 || !bytes.Equal(after, written) {
		t.Fatalf("clean journal read produced warnings %v (truncated %v)", replay.Warnings, !bytes.Equal(after, written))
	}
	for _, i := range []int{0, 3, 7} {
		res, err := RunScenario(scens[i])
		if err != nil {
			t.Fatalf("standalone %s: %v", scens[i].Label(), err)
		}
		standalone := Metrics(res, scens[i].Windows)
		for name, want := range done[i].Metrics {
			if got := standalone[name]; got != want {
				t.Errorf("scenario %d %s: standalone %s = %v, in-fleet %v",
					i, scens[i].Label(), name, got, want)
			}
		}
	}
}

// An interrupted sweep resumed from its journal lands on the same final
// aggregates as an uninterrupted one.
func TestResumeMatchesUninterrupted(t *testing.T) {
	straight, err := Run(testSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	partial, err := Run(testSpec(), Options{Workers: 2, Journal: journal, MaxScenarios: 3})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Completed != 3 {
		t.Fatalf("partial run completed %d, want 3", partial.Completed)
	}
	resumed, err := Run(testSpec(), Options{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 3 || resumed.Completed != 8 {
		t.Fatalf("resumed %d / completed %d, want 3 / 8", resumed.Resumed, resumed.Completed)
	}
	if a, b := straight.Agg.Fingerprint(), resumed.Agg.Fingerprint(); a != b {
		t.Errorf("resumed aggregates diverge from uninterrupted: %s vs %s", a, b)
	}
	// Resuming a finished sweep is a no-op replay with identical aggregates.
	again, err := Run(testSpec(), Options{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != 8 || again.Agg.Fingerprint() != straight.Agg.Fingerprint() {
		t.Errorf("replay of finished journal: resumed %d fp match %v",
			again.Resumed, again.Agg.Fingerprint() == straight.Agg.Fingerprint())
	}
}

func TestResumeRejectsDifferentSpec(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	if _, err := Run(testSpec(), Options{Workers: 1, Journal: journal, MaxScenarios: 2}); err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Seed = 8
	_, err := Run(other, Options{Workers: 1, Journal: journal, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("resume under changed seed: err = %v, want different-sweep rejection", err)
	}
	if _, err := Run(testSpec(), Options{Resume: true}); err == nil {
		t.Error("resume without a journal path accepted")
	}
}

// Failing scenarios are accounted (Failed + Agg.Errors), don't poison the
// aggregates, and survive the journal round trip.
func TestErrorScenarioAccounting(t *testing.T) {
	spec := testSpec()
	spec.Grid = nil
	spec.Scenarios = []hub.Scenario{
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline, Windows: 1, SkipAppCompute: true},
		{Apps: []apps.ID{"A99"}, Scheme: hub.Baseline, Windows: 1},
		{Apps: []apps.ID{apps.M2X}, Scheme: hub.Batching, Windows: 1, SkipAppCompute: true},
	}
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	res, err := Run(spec, Options{Workers: 2, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Errors != 1 || len(res.Failed) != 1 {
		t.Fatalf("errors %d / failed %v, want exactly the A99 scenario", res.Agg.Errors, res.Failed)
	}
	if res.Failed[0].Index != 1 || !strings.Contains(res.Failed[0].Err, "A99") {
		t.Errorf("failed = %+v, want index 1 mentioning A99", res.Failed[0])
	}
	if m := res.Agg.Metric("Baseline/total"); m == nil || m.Count() != 1 {
		t.Errorf("Baseline/total polluted by the failed scenario: %+v", m)
	}
	resumed, err := Run(spec, Options{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Agg.Fingerprint() != res.Agg.Fingerprint() {
		t.Error("journal replay of an errored sweep diverges")
	}
	if len(resumed.Failed) != 1 || resumed.Failed[0].Index != 1 {
		t.Errorf("resumed failure records = %+v", resumed.Failed)
	}
}

// Scenario tags redirect aggregation buckets (the Fig. 12 experiment keys
// rows by combo/scheme/rate rather than scheme alone).
func TestTagOverridesAggregationBucket(t *testing.T) {
	spec := Spec{Seed: 3, Scenarios: []hub.Scenario{
		{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline, Windows: 1, SkipAppCompute: true, Tag: "mix/base/q1"},
	}}
	res, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Agg.Metric("mix/base/q1/total"); m == nil || m.Count() != 1 {
		t.Errorf("tagged bucket missing; keys = %v", res.Agg.Keys())
	}
}

// P² sketches track exact quantiles closely on a deterministic pseudo-random
// stream, and are exact below five observations.
func TestP2QuantileAccuracy(t *testing.T) {
	const n = 2000
	m := newMetric()
	var exact []float64
	x := uint64(42)
	for i := 0; i < n; i++ {
		x = splitmix64(x)
		v := float64(x%100000) / 1000 // uniform-ish [0, 100)
		m.Add(v)
		exact = append(exact, v)
	}
	sort.Float64s(exact)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		want := exact[int(math.Ceil(p*n))-1]
		got := m.Quantile(p)
		if math.Abs(got-want) > 2.5 {
			t.Errorf("P%.0f = %v, exact %v (|err| > 2.5)", p*100, got, want)
		}
	}
	small := newMetric()
	for _, v := range []float64{5, 1, 9} {
		small.Add(v)
	}
	if got := small.Quantile(0.5); got != 5 {
		t.Errorf("small-sample P50 = %v, want exact 5", got)
	}
	if got := small.Quantile(0.99); got != 9 {
		t.Errorf("small-sample P99 = %v, want exact 9", got)
	}
	if w := small.Count(); w != 3 {
		t.Errorf("count = %d, want 3", w)
	}
	if small.Min() != 1 || small.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 1/9", small.Min(), small.Max())
	}
}

func TestWelfordMoments(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if w.Mean != 5 {
		t.Errorf("mean = %v, want 5", w.Mean)
	}
	if got := w.Std(); math.Abs(got-2.138089935) > 1e-9 {
		t.Errorf("std = %v, want ~2.1381 (sample std)", got)
	}
}

func TestScenarioSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := ScenarioSeed(7, i)
		if s == 0 || seen[s] {
			t.Fatalf("seed collision or zero at index %d: %d", i, s)
		}
		seen[s] = true
	}
	if ScenarioSeed(7, 3) == ScenarioSeed(8, 3) {
		t.Error("different fleet seeds produced the same scenario seed")
	}
}

func TestFleetRunsBCOM(t *testing.T) {
	if testing.Short() {
		t.Skip("BCOM planning over a multi-app mix is slow for -short")
	}
	spec := Spec{Seed: 1, Scenarios: []hub.Scenario{
		{Apps: []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}, Scheme: hub.BCOM, Windows: 1, SkipAppCompute: true},
	}}
	res, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Errors != 0 {
		t.Fatalf("BCOM scenario failed: %+v", res.Failed)
	}
	if m := res.Agg.Metric("BCOM/total"); m == nil || m.Mean() <= 0 {
		t.Errorf("BCOM aggregate missing or nonpositive; keys %v", res.Agg.Keys())
	}
}

// TestHybridWithoutAssignRefused: the planner fills in only BCOM's
// partition, so a Hybrid scenario with no Assign fails as a config error
// instead of running BCOM's split under the Hybrid label.
func TestHybridWithoutAssignRefused(t *testing.T) {
	_, err := RunScenario(hub.Scenario{Apps: []apps.ID{apps.StepCounter, apps.SpeechToTxt},
		Scheme: hub.Hybrid, Windows: 1, Seed: 1, SkipAppCompute: true})
	if !errors.Is(err, hub.ErrConfig) {
		t.Errorf("Hybrid without Assign: err = %v, want ErrConfig", err)
	}
}

// TestSensorFailScenarioMatchesHub: read failures are a fault-schedule rule,
// so a sweep scenario carries them as schedule text and runs exactly the
// config built directly on the hub.
func TestSensorFailScenarioMatchesHub(t *testing.T) {
	s := hub.Scenario{Apps: []apps.ID{apps.StepCounter, apps.M2X}, Scheme: hub.Baseline,
		Windows: 2, Seed: 3, Faults: "sensor-fail:every=10,on=S4", SkipAppCompute: true}
	viaFleet, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	var list []apps.App
	for _, id := range s.Apps {
		a, err := catalog.New(id, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, a)
	}
	direct, err := hub.Run(hub.Config{Apps: list, Scheme: hub.Baseline, Windows: 2, SkipAppCompute: true,
		FaultSchedule: &faults.Schedule{Rules: []faults.Rule{{Kind: faults.SensorFail,
			Target: string(sensor.Accelerometer), Trigger: faults.Trigger{EveryNth: 10}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.ReadRetries == 0 {
		t.Fatal("the schedule injected no read failures")
	}
	a, err := json.Marshal(viaFleet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("fleet scenario and direct hub run diverge:\nfleet:\t%s\nhub:\t%s", a, b)
	}
}

func TestProgressOutput(t *testing.T) {
	var sb strings.Builder
	if _, err := Run(testSpec(), Options{Workers: 2, Progress: &sb}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) == 0 {
		t.Fatalf("no progress lines:\n%s", sb.String())
	}
	// Every line is one JSON object; the last reports completion.
	type prog struct {
		Done       int     `json:"done"`
		Total      int     `json:"total"`
		Errors     int     `json:"errors"`
		RatePerSec float64 `json:"rate_per_sec"`
		ETASec     float64 `json:"eta_sec"`
	}
	var last prog
	for _, l := range lines {
		if err := json.Unmarshal([]byte(l), &last); err != nil {
			t.Fatalf("progress line %q is not JSON: %v", l, err)
		}
	}
	if last.Done != 8 || last.Total != 8 || last.Errors != 0 {
		t.Errorf("final progress = %+v, want done=8 total=8 errors=0", last)
	}
	if last.ETASec != 0 {
		t.Errorf("final ETA = %v, want 0 at completion", last.ETASec)
	}
}

func TestMetricsPerWindowNormalization(t *testing.T) {
	s := hub.Scenario{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline, Windows: 2, Seed: 5, SkipAppCompute: true}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	m := Metrics(res, 2)
	if got, want := m["total"], res.Energy.Attributed()/2; got != want {
		t.Errorf("total = %v, want per-window %v", got, want)
	}
	var sum float64
	for _, name := range []string{"collection", "interrupt", "transfer", "compute"} {
		sum += m[name]
	}
	if math.Abs(sum-m["total"]) > 1e-9*m["total"] {
		t.Errorf("routine metrics sum %v != total %v", sum, m["total"])
	}
}

// A battery with no leakage, no harvest and capacity far above demand is
// mains power: every field of the run but the battery's own matches the
// mains run. Floats agree within 1e-12 relative rather than bit for bit,
// because every ledger tick settles the meter's tracks at an extra instant.
func TestBatteryMatchesMains(t *testing.T) {
	battery := &power.Supply{Battery: power.Battery{CapacityMAh: 1e6, Volts: 5}}
	light := []apps.ID{apps.StepCounter, apps.M2X}
	heavy := []apps.ID{apps.SpeechToTxt, apps.StepCounter}
	for _, mix := range []struct {
		scheme hub.Scheme
		ids    []apps.ID
	}{
		{hub.Baseline, light}, {hub.Batching, light}, {hub.COM, light}, {hub.BEAM, light},
		{hub.BCOM, heavy}, {hub.ECOM, heavy},
	} {
		for _, chaos := range []string{"", "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms"} {
			s := hub.Scenario{Apps: mix.ids, Scheme: mix.scheme, Windows: 3, Seed: 5, Faults: chaos, SkipAppCompute: true}
			mains, err := RunScenario(s)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Label(), s.Seed, err)
			}
			s.Power = battery
			got, err := RunScenario(s)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Label(), s.Seed, err)
			}
			if got.BatteryCapacityJ <= 0 {
				t.Fatalf("%s seed %d: the supply is not armed", s.Label(), s.Seed)
			}
			got.BatteryCapacityJ, got.BatterySoCJ, got.BatteryMinSoCJ, got.BatteryHarvestJ = 0, 0, 0, 0
			got.BatterySurvival = 0
			delete(got.PerComponent, "battery")
			if diff := closeEqual("RunResult", reflect.ValueOf(*mains), reflect.ValueOf(*got)); diff != "" {
				t.Errorf("%s seed %d (faults %q): battery run differs from mains at %s", s.Label(), s.Seed, chaos, diff)
			}
		}
	}
}

// closeEqual compares two values of one type field by field: floats within
// 1e-12 relative, everything else exactly. It names the first difference,
// or returns "".
func closeEqual(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.Abs(x-y) > 1e-12*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Sprintf("%s: %v vs %v", path, x, y)
		}
	case reflect.Struct:
		for i := range a.NumField() {
			if d := closeEqual(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := closeEqual(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			at := fmt.Sprintf("%s[%v]", path, k)
			if !b.MapIndex(k).IsValid() {
				return at + ": missing"
			}
			if d := closeEqual(at, a.MapIndex(k), b.MapIndex(k)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
		}
		if !a.IsNil() {
			return closeEqual(path, a.Elem(), b.Elem())
		}
	case reflect.Int, reflect.Int64, reflect.Uint8, reflect.Bool, reflect.String:
		if x, y := fmt.Sprint(a), fmt.Sprint(b); x != y {
			return fmt.Sprintf("%s: %s vs %s", path, x, y)
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %v", path, a.Kind())
	}
	return ""
}
