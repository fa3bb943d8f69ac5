package energy

import (
	"encoding/json"
	"testing"
	"time"

	"iothub/internal/sim"
)

// thunk adapts a plain func to sim.Callback, so tests can schedule closures
// through the typed scheduling API.
type thunk func()

func (f thunk) OnEvent(sim.Arg) { f() }

// after schedules fn d from now.
func after(s *sim.Scheduler, d time.Duration, fn func()) (sim.EventID, error) {
	return s.AfterCall(d, thunk(fn), sim.Arg{})
}

// exerciseMeter drives a small two-component workload and returns the
// serialized totals, per-component map, components order, and cpu trace —
// everything a RunResult derives from a meter.
func exerciseMeter(t *testing.T, s *sim.Scheduler, m *Meter) (string, map[string]float64, []string, []Sample) {
	t.Helper()
	cpu := m.Track("cpu")
	cpu.EnableTrace()
	link := m.Track("link")
	if _, err := after(s, time.Millisecond, func() { cpu.Set(0.4, AppCompute) }); err != nil {
		t.Fatal(err)
	}
	if _, err := after(s, 2*time.Millisecond, func() {
		cpu.Set(0.1, Idle)
		link.Set(0.7, DataTransfer)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := after(s, 5*time.Millisecond, func() { link.Set(0, Idle) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total, err := json.Marshal(m.Total())
	if err != nil {
		t.Fatal(err)
	}
	return string(total), m.ByComponent(), m.Components(), cpu.TraceSamples()
}

// TestMeterResetReproducesFresh pins the meter-reuse contract: after Reset
// (with the clock also reset), re-requesting the same tracks in the same
// order yields byte-identical totals, per-component maps, component order,
// and traces as a fresh meter.
func TestMeterResetReproducesFresh(t *testing.T) {
	fs := sim.NewScheduler()
	fresh := NewMeter(fs)
	wantTotal, wantBy, wantComps, wantTrace := exerciseMeter(t, fs, fresh)

	rs := sim.NewScheduler()
	reused := NewMeter(rs)
	exerciseMeter(t, rs, reused)
	rs.Reset()
	reused.Reset()
	gotTotal, gotBy, gotComps, gotTrace := exerciseMeter(t, rs, reused)

	if gotTotal != wantTotal {
		t.Errorf("reused Total = %s, fresh = %s", gotTotal, wantTotal)
	}
	if len(gotBy) != len(wantBy) {
		t.Fatalf("reused ByComponent has %d entries, fresh %d", len(gotBy), len(wantBy))
	}
	for name, want := range wantBy {
		if got, ok := gotBy[name]; !ok || got != want {
			t.Errorf("ByComponent[%q] = %v (present=%v), fresh %v", name, got, ok, want)
		}
	}
	if len(gotComps) != len(wantComps) {
		t.Fatalf("Components = %v, fresh %v", gotComps, wantComps)
	}
	for i := range gotComps {
		if gotComps[i] != wantComps[i] {
			t.Fatalf("Components = %v, fresh %v", gotComps, wantComps)
		}
	}
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("trace has %d samples, fresh %d", len(gotTrace), len(wantTrace))
	}
	for i := range gotTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Errorf("trace[%d] = %+v, fresh %+v", i, gotTrace[i], wantTrace[i])
		}
	}
}

// TestMeterResetPoolsTracks pins the pooling mechanics: the revived Track is
// the same object (no allocation), and stale tracks never re-registered stay
// invisible to Components/ByComponent/Total.
func TestMeterResetPoolsTracks(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	a := m.Track("a")
	m.Track("b").Set(1.0, AppCompute)
	if _, err := after(s, time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	s.Reset()
	m.Reset()
	a2 := m.Track("a")
	if a2 != a {
		t.Error("Track(\"a\") after Reset returned a new object, want pooled")
	}
	if a2.Watts() != 0 || a2.Routine() != Idle {
		t.Errorf("revived track state = (%v W, %v), want fresh (0, Idle)", a2.Watts(), a2.Routine())
	}
	if got := a2.Breakdown().Total(); got != 0 {
		t.Errorf("revived track carries %v J from the previous run", got)
	}

	comps := m.Components()
	if len(comps) != 1 || comps[0] != "a" {
		t.Errorf("Components = %v, want [a] (b is stale)", comps)
	}
	if by := m.ByComponent(); len(by) != 1 {
		t.Errorf("ByComponent = %v, want only the live track", by)
	}
	if total := m.Total().Total(); total != 0 {
		t.Errorf("Total = %v J, want 0 (stale track b must not contribute)", total)
	}
}

// TestMeterResetZeroAlloc pins the payoff: Reset plus re-requesting pooled
// tracks allocates nothing.
func TestMeterResetZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s)
	names := []string{"cpu", "mcu", "link", "radio:main", "radio:mcu"}
	for _, n := range names {
		m.Track(n)
	}
	got := testing.AllocsPerRun(100, func() {
		m.Reset()
		for _, n := range names {
			m.Track(n).Set(0.5, AppCompute)
		}
	})
	if got != 0 {
		t.Errorf("Reset + %d pooled Track calls allocate %v per run, want 0", len(names), got)
	}
}
