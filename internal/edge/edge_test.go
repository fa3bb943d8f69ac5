package edge

import (
	"math"
	"reflect"
	"testing"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
)

func testParams() Params {
	return Params{
		CapacityMIPS: 1000,
		ActiveW:      2,
		InitPerMB:    1 * time.Millisecond,
		RTT:          10 * time.Millisecond,
		ResultCPU:    100 * time.Microsecond,
		Omega:        0.5,
		TRefSec:      5,
		ERefJoules:   5,
	}
}

// thunk adapts a plain func to sim.Callback, so tests can hand closures to
// the typed completion API.
type thunk func()

func (f thunk) OnEvent(sim.Arg) { f() }

// call binds fn as a completion.
func call(fn func()) sim.Done { return sim.Done{CB: thunk(fn)} }

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CapacityMIPS = 0 },
		func(p *Params) { p.ActiveW = -1 },
		func(p *Params) { p.IdleW = -1 },
		func(p *Params) { p.InitPerMB = -time.Second },
		func(p *Params) { p.RTT = -time.Second },
		func(p *Params) { p.ResultCPU = -time.Second },
		func(p *Params) { p.Omega = 1.5 },
		func(p *Params) { p.TRefSec = 0 },
		func(p *Params) { p.ERefJoules = 0 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestDerivedTimes(t *testing.T) {
	p := testParams()
	if got := p.InitTime(2 << 20); got != 2*time.Millisecond {
		t.Errorf("InitTime(2MB) = %v, want 2ms", got)
	}
	if got := p.ComputeTime(500); got != 500*time.Millisecond {
		t.Errorf("ComputeTime(500 MI) = %v, want 500ms", got)
	}
	// omega=0.5: objective is the mean of the normalized terms.
	if got := p.Objective(5, 5); math.Abs(got-1) > 1e-12 {
		t.Errorf("Objective(TRef, ERef) = %v, want 1", got)
	}
}

// TestSubmitTiming pins the full trip: RTT/2 up, cold init + compute, RTT/2
// down, and the warm second submission skipping the init.
func TestSubmitTiming(t *testing.T) {
	sched := sim.NewScheduler()
	meter := energy.NewMeter(sched)
	e, err := New(sched, meter, "edge", testParams())
	if err != nil {
		t.Fatal(err)
	}
	var first, second sim.Time
	// 1 MB footprint -> 1ms init; 100 MI -> 100ms compute; RTT 10ms.
	if err := e.Submit("A", 1<<20, 100, call(func() { first = sched.Now() })); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(111 * time.Millisecond); first != want {
		t.Errorf("cold trip returned at %v, want %v", first, want)
	}
	if err := e.Submit("A", 1<<20, 100, call(func() { second = sched.Now() })); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if want := first.Add(110 * time.Millisecond); second != want {
		t.Errorf("warm trip returned at %v, want %v", second, want)
	}
	if e.Jobs() != 2 || e.ColdStarts() != 1 {
		t.Errorf("jobs=%d coldStarts=%d, want 2 and 1", e.Jobs(), e.ColdStarts())
	}
}

// TestEnergyAttribution: the busy interval (init + compute) integrates
// ActiveW into AppCompute on the edge track; concurrent jobs stack.
func TestEnergyAttribution(t *testing.T) {
	sched := sim.NewScheduler()
	meter := energy.NewMeter(sched)
	e, err := New(sched, meter, "edge", testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Two zero-footprint jobs, 100 MI each, submitted together: they overlap
	// exactly, so the track draws 2 jobs x 2 W for 100ms = 0.4 J.
	if err := e.Submit("A", 0, 100, sim.Done{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("B", 0, 100, sim.Done{}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	bd := meter.Track("edge").Breakdown()
	if got, want := bd[energy.AppCompute], 0.4; math.Abs(got-want) > 1e-9 {
		t.Errorf("edge AppCompute = %v J, want %v", got, want)
	}
	if bd[energy.Idle] != 0 {
		t.Errorf("edge Idle = %v J, want 0 (IdleW=0)", bd[energy.Idle])
	}
}

func TestSubmitRejectsNegative(t *testing.T) {
	sched := sim.NewScheduler()
	meter := energy.NewMeter(sched)
	e, err := New(sched, meter, "edge", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("A", -1, 1, sim.Done{}); err == nil {
		t.Error("negative footprint accepted")
	}
	if err := e.Submit("A", 1, -1, sim.Done{}); err == nil {
		t.Error("negative MI accepted")
	}
}

// TestSubmitSteadyStateZeroAlloc pins the typed job events: once the
// scheduler arena is warm and the containers are warm, a submission with the
// zero Done allocates nothing.
func TestSubmitSteadyStateZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler()
	e, err := New(sched, energy.NewMeter(sched), "edge", testParams())
	if err != nil {
		t.Fatal(err)
	}
	jobs := func() {
		for _, app := range []string{"A", "B", "A"} {
			if err := e.Submit(app, 1<<20, 10, sim.Done{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
	jobs()
	if got := testing.AllocsPerRun(100, jobs); got != 0 {
		t.Errorf("warmed Submit allocates %v per run, want 0", got)
	}
}

// edgeReading is every exported reading of an executor after a run.
type edgeReading struct {
	Jobs, ColdStarts int
	Done             []sim.Time
	Energy           energy.Breakdown
}

// probeEdge runs one fixed workload on e — two cold containers, one reused
// warm, with jobs overlapping — and returns the readings.
func probeEdge(t *testing.T, e *Edge, s *sim.Scheduler) edgeReading {
	t.Helper()
	var done []sim.Time
	note := call(func() { done = append(done, s.Now()) })
	for _, app := range []string{"A", "B", "A"} {
		if err := e.Submit(app, 1<<20, 100, note); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return edgeReading{e.Jobs(), e.ColdStarts(), done, e.track.Breakdown()}
}

// TestResetMidRunMatchesFresh resets an executor caught mid-run — two
// containers warm and both computing — and checks that it then reads exactly
// like a freshly built one.
func TestResetMidRunMatchesFresh(t *testing.T) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	e, err := New(s, m, "edge", testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"A", "B"} {
		if err := e.Submit(app, 1<<20, 100, sim.Done{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(sim.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.track.Watts() != 2*testParams().ActiveW {
		t.Fatalf("setup: edge draws %v W, want both jobs running", e.track.Watts())
	}
	s.Reset()
	m.Reset()
	if err := e.Reset(testParams()); err != nil {
		t.Fatal(err)
	}
	got := probeEdge(t, e, s)
	fs := sim.NewScheduler()
	fresh, err := New(fs, energy.NewMeter(fs), "edge", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if want := probeEdge(t, fresh, fs); !reflect.DeepEqual(got, want) {
		t.Errorf("reset executor reads %+v\nfresh executor reads %+v", got, want)
	}
}
