package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
)

// journalFor runs a partial sweep of testSpec and returns the journal path,
// ready for corruption experiments.
func journalFor(t *testing.T, maxScenarios int) string {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	if _, err := Run(testSpec(), Options{Workers: 2, Journal: journal, MaxScenarios: maxScenarios}); err != nil {
		t.Fatal(err)
	}
	return journal
}

// replayOnly resumes testSpec from journal and closes the fold before any
// scenario runs: the journal replay alone, as OpenFold performs it.
func replayOnly(t *testing.T, journal string) (*Result, error) {
	t.Helper()
	spec := testSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFold(spec, scens, Options{Journal: journal, Resume: true})
	if err != nil {
		return nil, err
	}
	return f.Close()
}

// journalRecords reads the done records of a journal in file order.
func journalRecords(t *testing.T, journal string) []DoneRecord {
	t.Helper()
	blob, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var done []DoneRecord
	for _, line := range bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n")) {
		var rec journalLine
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Done != nil {
			done = append(done, *rec.Done)
		}
	}
	return done
}

// A crash mid-write leaves a partial final line. Resume skips it with a
// warning, truncates it out of the file, and still lands on the aggregates
// of an uninterrupted run.
func TestResumeToleratesTruncatedFinalLine(t *testing.T) {
	straight, err := Run(testSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	journal := journalFor(t, 5)
	intact, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a done record cut off mid-JSON, no newline.
	partial := []byte(`{"done":{"i":5,"label":"A4/Baseline/w1","m":{"coll`)
	crash := func() {
		t.Helper()
		if err := os.WriteFile(journal, append(intact, partial...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	crash()

	replay, err := replayOnly(t, journal)
	if err != nil {
		t.Fatalf("truncated final line rejected: %v", err)
	}
	if replay.Resumed != 5 {
		t.Fatalf("replayed %d records, want the 5 complete ones", replay.Resumed)
	}
	if len(replay.Warnings) != 1 || !strings.Contains(replay.Warnings[0], "partial record") {
		t.Fatalf("truncation not surfaced: warnings=%v", replay.Warnings)
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, intact) {
		t.Fatalf("partial tail not truncated away (err %v): %d bytes, want %d", err, len(after), len(intact))
	}

	crash()
	resumed, err := Run(testSpec(), Options{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 5 || resumed.Completed != 8 {
		t.Fatalf("resumed %d / completed %d, want 5 / 8", resumed.Resumed, resumed.Completed)
	}
	if len(resumed.Warnings) != 1 {
		t.Errorf("resume warnings = %v, want the partial-record warning", resumed.Warnings)
	}
	if resumed.Agg.Fingerprint() != straight.Agg.Fingerprint() {
		t.Error("aggregates diverge after tolerating a truncated final line")
	}
	// The partial tail was dropped before appending, so the healed journal
	// replays cleanly end to end and is left as it was.
	healed, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	again, err := replayOnly(t, journal)
	if err != nil {
		t.Fatalf("healed journal rejected: %v", err)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != 8 || !bytes.Equal(after, healed) || len(again.Warnings) != 0 {
		t.Errorf("healed journal: %d records, truncated=%v, warnings=%v",
			again.Resumed, !bytes.Equal(after, healed), again.Warnings)
	}
}

// A garbage line anywhere before the final record is corruption, not a
// crash signature — it must fail loudly.
func TestResumeRejectsCorruptMidFileLine(t *testing.T) {
	journal := journalFor(t, 5)
	blob, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to corrupt: %d lines", len(lines))
	}
	lines[2] = []byte(`{"done":{"i":1,"label":"A2/Baseline/w1"`) // cut mid-record
	if err := os.WriteFile(journal, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayOnly(t, journal); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("corrupt mid-file line: err = %v, want a line-3 parse failure", err)
	}
}

// A journal for a structurally different spec (not just another seed) is
// refused by the spec fingerprint in the header.
func TestResumeRejectsDifferentGridShape(t *testing.T) {
	journal := journalFor(t, 5)
	other := testSpec()
	other.Grid.Schemes = []string{"baseline", "com"} // same size, different scenarios
	_, err := Run(other, Options{Workers: 1, Journal: journal, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("resume under a different grid: err = %v, want different-sweep rejection", err)
	}
}

// identitySpec arms every scenario field a label abbreviates or leaves out:
// fault rules (label "/chaos"), the meter model ("/m<rate>"), the supply
// ("/b<mAh>"), Assign and SkipAppCompute (absent).
func identitySpec(t *testing.T) Spec {
	t.Helper()
	solar, err := power.Preset("solar")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Seed: 5,
		Grid: &Grid{
			Apps:           [][]apps.ID{{apps.StepCounter}},
			Schemes:        []string{"baseline"},
			Windows:        []int{1},
			Faults:         []string{"seed=7; link-corrupt:prob=0.05"},
			Meters:         []obs.MeterModel{obs.Insitu(100)},
			Power:          []power.Supply{{Battery: power.Battery{CapacityMAh: 0.5, Volts: 3, DerateFraction: 1}, Harvest: solar}},
			SkipAppCompute: true,
		},
		Scenarios: []hub.Scenario{{
			Apps: []apps.ID{apps.StepCounter, apps.M2X}, Scheme: hub.Hybrid, Windows: 1, SkipAppCompute: true,
			Assign: map[apps.ID]hub.Mode{apps.StepCounter: hub.Batched, apps.M2X: hub.PerSample},
		}},
	}
}

// A change the scenario labels cannot see still changes the journal header:
// resuming under it fails as a different sweep. Workers alone is not part of
// a sweep's identity, so changing it still resumes.
func TestResumeRejectsLabelInvisibleSpecChange(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	if _, err := Run(identitySpec(t), Options{Workers: 1, Journal: journal, MaxScenarios: 1}); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	labels := func(s Spec) string {
		scens, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, sc := range scens {
			out = append(out, sc.Label()+"|"+Tag(sc))
		}
		return strings.Join(out, ",")
	}
	resume := func(s Spec) error {
		path := filepath.Join(t.TempDir(), "fleet.jsonl")
		if err := os.WriteFile(path, written, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(s, Options{Workers: 1, Journal: path, Resume: true})
		return err
	}
	rf, err := power.Preset("rf")
	if err != nil {
		t.Fatal(err)
	}
	for name, change := range map[string]func(*Spec){
		"fault text":    func(s *Spec) { s.Grid.Faults = []string{"seed=7; mcu-crash:at=700ms,for=80ms"} },
		"assign":        func(s *Spec) { s.Scenarios[0].Assign[apps.M2X] = hub.Batched },
		"meter preset":  func(s *Spec) { s.Grid.Meters = []obs.MeterModel{obs.Eco(100)} },
		"harvest trace": func(s *Spec) { s.Grid.Power[0].Harvest = rf },
		"skipCompute":   func(s *Spec) { s.Grid.SkipAppCompute = false },
	} {
		other := identitySpec(t)
		change(&other)
		if labels(other) != labels(identitySpec(t)) {
			t.Fatalf("%s: the change shows in the labels, so it does not probe the spec hash", name)
		}
		if err := resume(other); err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Errorf("%s: resume err = %v, want different-sweep rejection", name, err)
		}
	}
	wider := identitySpec(t)
	wider.Workers = 3
	if err := resume(wider); err != nil {
		t.Errorf("resume with only Workers changed: %v", err)
	}
}

// A journal claiming more scenarios than the spec expands to is rejected:
// the done index runs past the tag table.
func TestResumeRejectsJournalBeyondSpec(t *testing.T) {
	journal := journalFor(t, 8) // complete journal for 8 scenarios
	extra := `{"done":{"i":8,"label":"phantom","m":{"total":1}}}` + "\n"
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(extra); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := replayOnly(t, journal); err == nil || !strings.Contains(err.Error(), "beyond the spec's") {
		t.Errorf("oversized journal: err = %v, want beyond-the-spec rejection", err)
	}
}

// A snapshot whose fingerprint disagrees with the replayed prefix (bit-level
// corruption of an earlier metric) is rejected even though every line parses.
func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	journal := journalFor(t, 8)
	blob, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one metric value in the first done record without breaking JSON.
	lines := bytes.Split(blob, []byte("\n"))
	var rec journalLine
	if err := json.Unmarshal(lines[1], &rec); err != nil || rec.Done == nil {
		t.Fatalf("line 2 is not a done record: %v", err)
	}
	rec.Done.Metrics["total"] *= 1.5
	fixed, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = fixed
	if err := os.WriteFile(journal, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayOnly(t, journal); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("bit-corrupted journal: err = %v, want snapshot fingerprint mismatch", err)
	}
}

// RunRange is the worker-side shard primitive: its records must equal the
// slice an in-process sweep would journal, for any parallelism.
func TestRunRangeMatchesSweep(t *testing.T) {
	spec := testSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	if _, err := Run(spec, Options{Workers: 1, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	done := journalRecords(t, journal)
	for _, par := range []int{1, 3} {
		records, err := RunRange(scens, 2, 7, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != 5 {
			t.Fatalf("parallelism %d: %d records, want 5", par, len(records))
		}
		for k, rec := range records {
			want := done[2+k]
			if rec.Index != want.Index || rec.Label != want.Label || rec.Err != want.Err {
				t.Errorf("parallelism %d record %d: %+v, want %+v", par, k, rec, want)
			}
			for name, v := range want.Metrics {
				if rec.Metrics[name] != v {
					t.Errorf("parallelism %d record %d metric %s: %v, want %v", par, k, name, rec.Metrics[name], v)
				}
			}
		}
	}
	if _, err := RunRange(scens, 5, 3, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RunRange(scens, 0, len(scens)+1, 1); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}

// Aggregator JSON is deterministic across worker counts and is valid JSON.
func TestAggregatorJSONDeterministic(t *testing.T) {
	one, err := Run(testSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(testSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := one.Agg.JSON(), four.Agg.JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("aggregate JSON diverges across worker counts:\n%s\nvs\n%s", a, b)
	}
	var doc struct {
		Runs        int                           `json:"runs"`
		Errors      int                           `json:"errors"`
		Fingerprint string                        `json:"fingerprint"`
		Metrics     map[string]map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("aggregate JSON does not parse: %v\n%s", err, a)
	}
	if doc.Runs != 8 || doc.Fingerprint != one.Agg.Fingerprint() {
		t.Errorf("runs=%d fingerprint=%q, want 8 / %q", doc.Runs, doc.Fingerprint, one.Agg.Fingerprint())
	}
	if m := doc.Metrics["Baseline/total"]; m == nil || m["n"] != 4 {
		t.Errorf("Baseline/total = %v", doc.Metrics["Baseline/total"])
	}
}

// The sweep fingerprints keep their hex. Journal headers and snapshots,
// fleetd submissions and the benchmark's reference aggregates all carry
// hashes seeded with fingerprintBasis; "correcting" it to FNV's real offset
// basis would orphan every one of them, and this test fails first.
func TestFingerprintsPinned(t *testing.T) {
	agg := NewAggregator()
	agg.Apply("Baseline", map[string]float64{"total": 1.25, "latency": 0.5})
	agg.Apply("COM", map[string]float64{"total": 0.75, "qos": 0})
	if got, want := agg.Fingerprint(), "e595e87b136da429"; got != want {
		t.Errorf("two-record Aggregator.Fingerprint() = %s, want %s", got, want)
	}
	spec, err := LoadSpec(filepath.Join("testdata", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SpecFingerprint(spec, scens), "1763aab7640506b7"; got != want {
		t.Errorf("SpecFingerprint(testdata/smoke.json) = %s, want %s", got, want)
	}
	records := []DoneRecord{
		{Index: 0, Label: "A2/Baseline/w1", Metrics: map[string]float64{"total": 1.25, "latency": 0.5}},
		{Index: 1, Label: "A2/COM/w1", Err: "hub: invalid config: boom"},
	}
	if got, want := RecordsFingerprint(records), "e6b46c4d60040b1a"; got != want {
		t.Errorf("two-record RecordsFingerprint() = %s, want %s", got, want)
	}
}
