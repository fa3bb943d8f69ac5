package sim

import (
	"fmt"
	"testing"
)

// orderStep is one top-level step of a FuzzReservedOrder schedule: a periodic
// series starting at at, or an ordinary event at at whose callback may start
// a series of its own. Every dispatch of either kind schedules one follow-up
// per entry of follow, that many nanoseconds later; follow-ups schedule the
// same again, two levels deep.
type orderStep struct {
	series bool
	nested bool // ordinary event: its callback starts a series at now
	cancel bool // ordinary event: cancelled right after scheduling
	at     Time
	period Time
	n      int
	follow []Time
}

// decodeOrder turns fuzz bytes into a schedule. Small moduli make colliding
// instants, zero periods and same-instant follow-ups common.
func decodeOrder(data []byte) []orderStep {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % mod
	}
	steps := make([]orderStep, 1+next(6))
	for i := range steps {
		st := &steps[i]
		kind := next(4)
		st.series = kind < 2
		st.nested = kind == 2
		st.cancel = kind == 3 && next(2) == 0
		st.at = Time(next(8))
		st.period = Time(next(4))
		st.n = 1 + next(10)
		for f := next(3); f > 0; f-- {
			st.follow = append(st.follow, Time(next(3)))
		}
	}
	return steps
}

// seriesRun is one started series: the step that shapes it, its first
// instant, and its reserved seq base (chained mode only). Its index in
// orderRun.runs names it in the log.
type seriesRun struct {
	step int
	t0   Time
	base uint64
}

// orderRun replays a schedule, queuing each series either fully up front or
// chained under reserved seqs, and logs every dispatch. Steps, started series
// and follow-ups live in its slices; events name them by index.
type orderRun struct {
	s       *Scheduler
	chained bool
	steps   []orderStep
	runs    []seriesRun
	follows []followUp
	log     []string
}

const (
	opSeriesEvent = iota + 1 // I0 index in the series, I1 index in runs
	opPlainEvent             // I0 step index
	opFollowUp               // I0 depth, I1 index in follows
)

// followUp is a follow-up event's label and the follow-ups it schedules.
type followUp struct {
	label  string
	follow []Time
}

// startSeries queues the series of step i starting at t0: every event at
// once, or, in chained mode, only the first under a freshly reserved block of
// seqs.
func (o *orderRun) startSeries(i int, t0 Time) {
	run := int64(len(o.runs))
	o.runs = append(o.runs, seriesRun{step: i, t0: t0})
	st := &o.steps[i]
	if !o.chained {
		for k := 0; k < st.n; k++ {
			mustSchedule(o.s.AtCall(t0+Time(k)*st.period, o, Arg{Op: opSeriesEvent, I0: int64(k), I1: run}))
		}
		return
	}
	o.runs[run].base = o.s.Reserve(st.n)
	mustSchedule(o.s.AtCallSeq(t0, o.runs[run].base, o, Arg{Op: opSeriesEvent, I1: run}))
}

// mustSchedule panics on a scheduling error: the schedules built in this
// package's tests and benchmarks never schedule in the past.
func mustSchedule(_ EventID, err error) {
	if err != nil {
		panic(err)
	}
}

func (o *orderRun) OnEvent(a Arg) {
	switch a.Op {
	case opSeriesEvent:
		sr, k := o.runs[a.I1], int(a.I0)
		st := &o.steps[sr.step]
		if o.chained && k+1 < st.n {
			at := sr.t0 + Time(k+1)*st.period
			mustSchedule(o.s.AtCallSeq(at, sr.base+uint64(k+1), o, Arg{Op: opSeriesEvent, I0: int64(k + 1), I1: a.I1}))
		}
		o.dispatch(fmt.Sprintf("s%d.%d", a.I1, k), st.follow, 0)
	case opPlainEvent:
		i := int(a.I0)
		o.dispatch(fmt.Sprintf("e%d", i), o.steps[i].follow, 0)
		if o.steps[i].nested {
			o.startSeries(i, o.s.Now())
		}
	case opFollowUp:
		fu := o.follows[a.I1]
		o.dispatch(fu.label, fu.follow, int(a.I0))
	}
}

// dispatch logs the event and, up to depth 2, schedules its follow-ups,
// alternating a func adapter and the run's own Callback so two handlers
// share the order under test.
func (o *orderRun) dispatch(label string, follow []Time, depth int) {
	o.log = append(o.log, fmt.Sprintf("%s@%d", label, o.s.Now()))
	if depth == 2 {
		return
	}
	for i, d := range follow {
		child := fmt.Sprintf("%s/%d", label, i)
		at := o.s.Now() + d
		if i%2 == 0 {
			mustSchedule(schedAt(o.s, at, func() { o.dispatch(child, follow, depth+1) }))
			continue
		}
		o.follows = append(o.follows, followUp{child, follow})
		mustSchedule(o.s.AtCall(at, o, Arg{Op: opFollowUp, I0: int64(depth + 1), I1: int64(len(o.follows) - 1)}))
	}
}

// replayOrder runs the schedule once and returns its dispatch log and Stats.
func replayOrder(steps []orderStep, chained bool) (log []string, scheduled, cancelled uint64) {
	o := &orderRun{s: NewScheduler(), chained: chained, steps: steps}
	for i := range steps {
		st := &steps[i]
		if st.series {
			o.startSeries(i, st.at)
			continue
		}
		id, err := o.s.AtCall(st.at, o, Arg{Op: opPlainEvent, I0: int64(i)})
		mustSchedule(id, err)
		if st.cancel && !o.s.Cancel(id) {
			panic("cancel of a pending event reported false")
		}
	}
	if err := o.s.Run(); err != nil {
		panic(err)
	}
	scheduled, cancelled = o.s.Stats()
	return o.log, scheduled, cancelled
}

// FuzzReservedOrder checks the contract chained sensor reads rely on: a
// periodic series whose seqs are claimed with Reserve and whose events are
// each queued by their predecessor under AtCallSeq dispatches exactly as if
// the whole series had been queued up front — mixed with ordinary events at
// colliding instants, zero periods, follow-ups scheduled from inside
// callbacks, and series started from inside callbacks. Dispatch sequence and
// Stats must match.
func FuzzReservedOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 5, 2, 0, 1, 1, 2, 0, 9, 1, 0, 1, 4, 0, 2, 0, 2, 1, 2})
	f.Add([]byte{5, 2, 0, 0, 0, 3, 1, 1, 1, 2, 0, 3, 7, 2, 0, 0, 3, 0, 0, 1, 8, 2, 1, 2, 3, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeOrder(data)
		want, wantSched, wantCanc := replayOrder(steps, false)
		got, gotSched, gotCanc := replayOrder(steps, true)
		if len(got) != len(want) {
			t.Fatalf("chained run dispatched %d events, up-front run %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dispatch %d: chained %s, up-front %s\nup-front: %v\nchained:  %v", i, got[i], want[i], want, got)
			}
		}
		if gotSched != wantSched || gotCanc != wantCanc {
			t.Fatalf("Stats: chained (%d, %d), up-front (%d, %d)", gotSched, gotCanc, wantSched, wantCanc)
		}
	})
}

// TestAtCallSeqRejects covers AtCallSeq's guards: a seq never claimed by
// Reserve, an instant in the past, and a nil callback schedule nothing.
func TestAtCallSeqRejects(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	base := s.Reserve(2)
	if _, err := s.AtCallSeq(0, base+2, rec, Arg{}); err == nil {
		t.Error("AtCallSeq accepted a seq past the reserved block")
	}
	if _, err := s.AtCallSeq(0, base, nil, Arg{}); err == nil {
		t.Error("AtCallSeq accepted a nil callback")
	}
	if _, err := s.AtCall(5, rec, Arg{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AtCallSeq(4, base, rec, Arg{}); err == nil {
		t.Error("AtCallSeq accepted an instant before now")
	}
	if scheduled, _ := s.Stats(); scheduled != 1 {
		t.Errorf("Stats scheduled = %d, want 1 (rejected calls count nothing)", scheduled)
	}
}
