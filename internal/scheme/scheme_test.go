package scheme

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/sensor"
)

// TestSchemeTextRoundTrip drives every scheme of the table through the full
// text codec: String → Parse (in several casings, since Parse is the
// CLI-facing entry point) and MarshalText → UnmarshalText.
func TestSchemeTextRoundTrip(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("schemes = %d, want the paper's 5 plus Hybrid and ECOM", len(all))
	}
	for _, s := range all {
		name := s.String()
		for _, spelling := range []string{
			name,
			strings.ToLower(name),
			strings.ToUpper(name),
			"  " + name + " ", // Parse trims surrounding space
		} {
			got, err := Parse(spelling)
			if err != nil {
				t.Errorf("Parse(%q): %v", spelling, err)
				continue
			}
			if got != s {
				t.Errorf("Parse(%q) = %v, want %v", spelling, got, s)
			}
		}

		blob, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v.MarshalText: %v", s, err)
		}
		if string(blob) != name {
			t.Errorf("%v.MarshalText = %q, want %q", s, blob, name)
		}
		var back Scheme
		if err := back.UnmarshalText(blob); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", blob, err)
		}
		if back != s {
			t.Errorf("UnmarshalText(%q) = %v, want %v", blob, back, s)
		}
	}
}

// TestSchemeTextInvalid covers the codec's failure paths: unknown names must
// fail with ErrConfig (so CLIs report them as config errors), and
// out-of-range values must stringify without panicking.
func TestSchemeTextInvalid(t *testing.T) {
	for _, name := range []string{"", "warp", "base line", "Scheme(3)", "baselinex"} {
		if _, err := Parse(name); !errors.Is(err, ErrConfig) {
			t.Errorf("Parse(%q) err = %v, want ErrConfig", name, err)
		}
		var s Scheme
		if err := s.UnmarshalText([]byte(name)); !errors.Is(err, ErrConfig) {
			t.Errorf("UnmarshalText(%q) err = %v, want ErrConfig", name, err)
		}
		if s != 0 {
			t.Errorf("failed UnmarshalText(%q) mutated receiver to %v", name, s)
		}
	}
	if got := Scheme(0).String(); got != "Scheme(0)" {
		t.Errorf("Scheme(0).String() = %q", got)
	}
	if got := Scheme(99).String(); got != "Scheme(99)" {
		t.Errorf("Scheme(99).String() = %q", got)
	}
}

// TestModeTextRoundTrip mirrors the scheme codec test for per-app modes.
func TestModeTextRoundTrip(t *testing.T) {
	for _, m := range []Mode{PerSample, Batched, Offloaded, Uploaded} {
		blob, err := m.MarshalText()
		if err != nil {
			t.Fatalf("%v.MarshalText: %v", m, err)
		}
		if string(blob) != m.String() {
			t.Errorf("%v.MarshalText = %q, want %q", m, blob, m.String())
		}
		var back Mode
		if err := back.UnmarshalText(blob); err != nil {
			t.Fatalf("Mode.UnmarshalText(%q): %v", blob, err)
		}
		if back != m {
			t.Errorf("Mode.UnmarshalText(%q) = %v, want %v", blob, back, m)
		}
	}
}

// TestModeTextInvalid: unknown mode names fail with ErrConfig; modes are
// result-file identifiers, so (unlike Parse) the codec is case-exact.
func TestModeTextInvalid(t *testing.T) {
	for _, name := range []string{"", "bogus", "persample", "BATCHED", "Mode(2)"} {
		var m Mode
		if err := m.UnmarshalText([]byte(name)); !errors.Is(err, ErrConfig) {
			t.Errorf("Mode.UnmarshalText(%q) err = %v, want ErrConfig", name, err)
		}
		if m != 0 {
			t.Errorf("failed Mode.UnmarshalText(%q) mutated receiver to %v", name, m)
		}
	}
	if got := Mode(0).String(); got != "Mode(0)" {
		t.Errorf("Mode(0).String() = %q", got)
	}
}

// FuzzParseScheme asserts the codec's core property over arbitrary input:
// Parse either rejects with ErrConfig, or returns a scheme of the table whose
// canonical name re-parses to the same value.
func FuzzParseScheme(f *testing.F) {
	for _, s := range All() {
		f.Add(s.String())
		f.Add(strings.ToLower(s.String()))
	}
	f.Add("")
	f.Add("warp")
	f.Add(" BeAm ")
	f.Fuzz(func(t *testing.T, name string) {
		s, err := Parse(name)
		if err != nil {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Parse(%q) err = %v, want ErrConfig", name, err)
			}
			return
		}
		if _, err := Lookup(s); err != nil {
			t.Fatalf("Parse(%q) = %v, which has no row: %v", name, s, err)
		}
		again, err := Parse(s.String())
		if err != nil || again != s {
			t.Fatalf("Parse(%q) = %v but Parse(%q) = %v, %v", name, s, s.String(), again, err)
		}
	})
}

// FuzzModeUnmarshalText: any accepted text must be the mode's own canonical
// marshaling; everything else is ErrConfig.
func FuzzModeUnmarshalText(f *testing.F) {
	for _, m := range []Mode{PerSample, Batched, Offloaded, Uploaded} {
		f.Add(m.String())
	}
	f.Add("bogus")
	f.Fuzz(func(t *testing.T, name string) {
		var m Mode
		err := m.UnmarshalText([]byte(name))
		if err != nil {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Mode.UnmarshalText(%q) err = %v, want ErrConfig", name, err)
			}
			return
		}
		blob, err := m.MarshalText()
		if err != nil || string(blob) != name {
			t.Fatalf("Mode.UnmarshalText(%q) = %v, but MarshalText = %q, %v", name, m, blob, err)
		}
	})
}

// TestSchemeTable pins each scheme's row through Def.Modes, RequiresAssign
// and Planned, over one light app (A2) and one heavy app (A11), plus the
// table order of All/Names and Lookup's refusal of an unknown scheme.
func TestSchemeTable(t *testing.T) {
	light := apps.Spec{ID: apps.StepCounter}
	heavy := apps.Spec{ID: apps.SpeechToTxt, Heavy: true}
	// A zero mode marks a refusal, whose error is the matching err field.
	rows := []struct {
		s                  Scheme
		assign, planned    bool
		light, heavy       Mode
		lightErr, heavyErr error
	}{
		{s: Baseline, light: PerSample, heavy: PerSample},
		{s: Batching, light: Batched, heavy: Batched},
		{s: COM, light: Offloaded, heavyErr: ErrUnoffloadable},
		{s: BCOM, assign: true, planned: true, lightErr: ErrConfig, heavyErr: ErrConfig},
		{s: BEAM, lightErr: ErrConfig, heavyErr: ErrConfig}, // a single app shares nothing
		{s: Hybrid, assign: true, lightErr: ErrConfig, heavyErr: ErrConfig},
		{s: ECOM, light: Offloaded, heavy: Uploaded},
	}
	if got := All(); len(got) != len(rows) {
		t.Fatalf("All() = %v, want %d schemes", got, len(rows))
	}
	for i, row := range rows {
		if got := All()[i]; got != row.s {
			t.Errorf("All()[%d] = %v, want %v", i, got, row.s)
		}
		d, err := Lookup(row.s)
		if err != nil {
			t.Fatalf("Lookup(%v): %v", row.s, err)
		}
		if d.scheme != row.s || d.RequiresAssign() != row.assign || d.Planned() != row.planned {
			t.Errorf("Lookup(%v) = %v with RequiresAssign %v, Planned %v, want %v, %v",
				row.s, d.scheme, d.RequiresAssign(), d.Planned(), row.assign, row.planned)
		}
		for _, app := range []struct {
			sp   apps.Spec
			want Mode
			err  error
		}{{light, row.light, row.lightErr}, {heavy, row.heavy, row.heavyErr}} {
			modes, err := d.Modes(ConfigView{Specs: []apps.Spec{app.sp}})
			if app.err != nil {
				if !errors.Is(err, app.err) {
					t.Errorf("%v: Modes(%s) err = %v, want %v", row.s, app.sp.ID, err, app.err)
				}
				continue
			}
			if err != nil || len(modes) != 1 || modes[app.sp.ID] != app.want {
				t.Errorf("%v: Modes(%s) = %v, %v, want %v", row.s, app.sp.ID, modes, err, app.want)
			}
		}
		// A partitioned scheme runs exactly its Assign; every other scheme
		// refuses one.
		both := []apps.Spec{light, heavy}
		modes, err := d.Modes(ConfigView{Specs: both, Assign: map[apps.ID]Mode{
			apps.StepCounter: Offloaded, apps.SpeechToTxt: Uploaded}})
		if !row.assign {
			if !errors.Is(err, ErrConfig) {
				t.Errorf("%v: Modes with Assign err = %v, want ErrConfig", row.s, err)
			}
			continue
		}
		if err != nil || modes[apps.StepCounter] != Offloaded || modes[apps.SpeechToTxt] != Uploaded {
			t.Errorf("%v: Modes with Assign = %v, %v", row.s, modes, err)
		}
		refusals := []struct {
			name   string
			assign map[apps.ID]Mode
			want   error
		}{
			{"missing app", map[apps.ID]Mode{apps.StepCounter: Batched}, ErrConfig},
			{"Mode(0)", map[apps.ID]Mode{apps.StepCounter: 0, apps.SpeechToTxt: Batched}, ErrConfig},
			{"Mode(9)", map[apps.ID]Mode{apps.StepCounter: 9, apps.SpeechToTxt: Batched}, ErrConfig},
			{"heavy offloaded", map[apps.ID]Mode{apps.StepCounter: Batched, apps.SpeechToTxt: Offloaded}, ErrUnoffloadable},
		}
		for _, r := range refusals {
			if _, err := d.Modes(ConfigView{Specs: both, Assign: r.assign}); !errors.Is(err, r.want) {
				t.Errorf("%v: Modes(%s) err = %v, want %v", row.s, r.name, err, r.want)
			}
		}
	}
	// BEAM shares streams between two or more apps, each on PerSample.
	beam, _ := Lookup(BEAM)
	modes, err := beam.Modes(ConfigView{Specs: []apps.Spec{light, heavy}})
	if err != nil || modes[apps.StepCounter] != PerSample || modes[apps.SpeechToTxt] != PerSample {
		t.Errorf("BEAM: Modes(A2, A11) = %v, %v, want PerSample for both", modes, err)
	}
	if _, err := Lookup(Scheme(42)); !errors.Is(err, ErrConfig) {
		t.Errorf("Lookup(Scheme(42)) err = %v, want ErrConfig", err)
	}

	names := Names()
	want := []string{"baseline", "batching", "com", "bcom", "beam", "hybrid", "ecom"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Names() = %v, want %v", names, want)
	}
}

// TestDegrade pins the resilience ladder.
func TestDegrade(t *testing.T) {
	steps := []struct {
		from, to Mode
		ok       bool
	}{
		{Uploaded, Batched, true}, // a dead edge falls back to local batching
		{Offloaded, Batched, true},
		{Batched, PerSample, true},
		{PerSample, PerSample, false}, // the ladder's floor
	}
	for _, s := range steps {
		to, ok := Degrade(s.from)
		if to != s.to || ok != s.ok {
			t.Errorf("Degrade(%v) = %v, %v, want %v, %v", s.from, to, ok, s.to, s.ok)
		}
	}
}

// TestPolicyTable pins each mode's verdict row to its Table II row — the
// semantic contract the golden corpus depends on — and the panic on a mode
// outside the table.
func TestPolicyTable(t *testing.T) {
	rows := []struct {
		mode Mode
		want Policy
	}{
		{PerSample, Policy{Sample: Interrupt, Transfer: PerSampleTransfer, Place: OnCPU, Gate: AwaitDelivery}},
		{Batched, Policy{Sample: Buffer, Transfer: CoalescedTransfer, Place: OnCPU, Gate: AwaitCollection}},
		{Offloaded, Policy{Sample: Hold, Transfer: ResultOnlyTransfer, Place: OnMCU, Gate: AwaitCollection}},
		{Uploaded, Policy{Sample: Buffer, Transfer: CoalescedTransfer, Place: OnEdge, Gate: AwaitCollection}},
	}
	for _, r := range rows {
		if got := r.mode.Policy(); got != r.want {
			t.Errorf("%v.Policy() = %+v, want %+v", r.mode, got, r.want)
		}
	}
	for _, bad := range []Mode{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.Policy() did not panic", bad)
				}
			}()
			bad.Policy()
		}()
	}
}

// TestStreamPlans pins the stream planner on both sides of a row's shared
// flag, over catalog apps: an unshared row gives each (app, sensor) use its
// own stream in app order; BEAM joins a sensor's users into one stream at
// the fastest rate and the widest sample, strides slower users, and refuses
// rates that do not divide.
func TestStreamPlans(t *testing.T) {
	spec := func(id apps.ID) apps.Spec {
		a, err := catalog.New(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		return a.Spec()
	}
	// at is sp reading its first sensor at hz.
	at := func(sp apps.Spec, hz float64) apps.Spec {
		sp.Sensors = append([]apps.SensorUse(nil), sp.Sensors...)
		sp.Sensors[0].RateHz = hz
		return sp
	}
	a1, a2, a7, a11 := spec(apps.CoAPServer), spec(apps.StepCounter), spec(apps.Earthquake), spec(apps.SpeechToTxt)
	baseline, _ := Lookup(Baseline)
	beam, _ := Lookup(BEAM)
	type stream struct {
		sensor           sensor.ID
		track            string
		bytes, perWindow int
		consumers        []Consumer
	}
	for _, tc := range []struct {
		name  string
		def   Def
		specs []apps.Spec
		want  []stream
	}{
		{"dedicated A2+A7", baseline, []apps.Spec{a2, a7}, []stream{
			{"S4", "sensor:S4:A2", 12, 1000, []Consumer{{0, 1}}},
			{"S4", "sensor:S4:A7", 12, 1000, []Consumer{{1, 1}}},
		}},
		{"dedicated A1+A11", baseline, []apps.Spec{a1, a11}, []stream{
			{"S7", "sensor:S7:A1", 8, 1000, []Consumer{{0, 1}}},
			{"S8", "sensor:S8:A1", 4, 1000, []Consumer{{0, 1}}},
			{"S8", "sensor:S8:A11", 6, 1000, []Consumer{{1, 1}}},
		}},
		{"BEAM A2+A7", beam, []apps.Spec{a2, a7}, []stream{
			{"S4", "sensor:S4", 12, 1000, []Consumer{{0, 1}, {1, 1}}},
		}},
		// A1 reads S8 at 4 B, A11 at 6 B: the shared read is the wider, in
		// either app order, and streams follow first use.
		{"BEAM A1+A11", beam, []apps.Spec{a1, a11}, []stream{
			{"S7", "sensor:S7", 8, 1000, []Consumer{{0, 1}}},
			{"S8", "sensor:S8", 6, 1000, []Consumer{{0, 1}, {1, 1}}},
		}},
		{"BEAM A11+A1", beam, []apps.Spec{a11, a1}, []stream{
			{"S8", "sensor:S8", 6, 1000, []Consumer{{0, 1}, {1, 1}}},
			{"S7", "sensor:S7", 8, 1000, []Consumer{{1, 1}}},
		}},
		// The stream runs at the faster user's rate, and the half-rate user
		// takes every other sample, whichever comes first.
		{"BEAM A2+half-rate A7", beam, []apps.Spec{a2, at(a7, 500)}, []stream{
			{"S4", "sensor:S4", 12, 1000, []Consumer{{0, 1}, {1, 2}}},
		}},
		{"BEAM half-rate A7+A2", beam, []apps.Spec{at(a7, 500), a2}, []stream{
			{"S4", "sensor:S4", 12, 1000, []Consumer{{0, 2}, {1, 1}}},
		}},
	} {
		plan, err := tc.def.PlanStreams(ConfigView{Specs: tc.specs, Window: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []stream
		for _, s := range plan {
			got = append(got, stream{s.Sensor, s.Track, s.Bytes, s.PerWindow, s.Consumers})
			if s.Spec.ID != s.Sensor || s.Period != time.Second/time.Duration(s.PerWindow) {
				t.Errorf("%s: %s stream has spec %s, period %v", tc.name, s.Track, s.Spec.ID, s.Period)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: plan = %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
	// 3 and 2 samples per window: no integer stride serves both.
	_, err := beam.PlanStreams(ConfigView{Specs: []apps.Spec{at(a2, 3), at(a7, 2)}, Window: time.Second})
	if !errors.Is(err, ErrConfig) {
		t.Errorf("BEAM at 3 vs 2 samples per window: err = %v, want ErrConfig", err)
	}
}
