package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedulerThroughput measures raw event dispatch: schedule and run
// 10k chained events per iteration.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		count := 0
		var step func()
		step = func() {
			count++
			if count < 10_000 {
				if _, err := schedAfter(s, time.Microsecond, step); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := schedAt(s, 0, step); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerFanOut measures a deep queue: 5000 events queued up
// front in time order, then drained.
func BenchmarkSchedulerFanOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for k := 0; k < 5000; k++ {
			if _, err := schedAt(s, Time(k), func() {}); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// chainedStreams models the hub's sensor reads: a few periodic streams, each
// read queuing its successor under a reserved seq and starting a short chain
// of follow-up events (bus done, formatting, transfer), so the run queue
// stays a handful of events deep.
type chainedStreams struct {
	s       *Scheduler
	streams []chainedStream
}

type chainedStream struct {
	period Time
	n      int
	base   uint64
}

// OnEvent handles a read (Op 0: I0 index, I1 stream index) or a follow-up
// (Op: the steps left in its chain).
func (c *chainedStreams) OnEvent(a Arg) {
	if a.Op > 0 {
		if a.Op > 1 {
			mustSchedule(c.s.AfterCall(100, c, Arg{Op: a.Op - 1}))
		}
		return
	}
	st, k := &c.streams[a.I1], a.I0
	if k+1 < int64(st.n) {
		mustSchedule(c.s.AtCallSeq(Time(k+1)*st.period, st.base+uint64(k+1), c, Arg{I0: k + 1, I1: a.I1}))
	}
	mustSchedule(c.s.AfterCall(300, c, Arg{Op: 3}))
}

// BenchmarkSchedulerChainedStreams runs four chained periodic streams over a
// 2 ms horizon (5400 reads, four events each) on a reused scheduler, and
// reports events/op and ns/event.
func BenchmarkSchedulerChainedStreams(b *testing.B) {
	const horizon = 2_000_000
	c := &chainedStreams{s: NewScheduler()}
	for _, p := range []Time{1000, 1000, 2000, 5000} {
		c.streams = append(c.streams, chainedStream{period: p, n: int(horizon / p)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		c.s.Reset()
		for j := range c.streams {
			st := &c.streams[j]
			st.base = c.s.Reserve(st.n)
			mustSchedule(c.s.AtCallSeq(0, st.base, c, Arg{I1: int64(j)}))
		}
		if err := c.s.Run(); err != nil {
			b.Fatal(err)
		}
		events, _ = c.s.Stats()
	}
	b.ReportMetric(float64(events), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events)/float64(b.N), "ns/event")
}

// holdRandom is the classic hold model: every dispatch schedules one event
// at a random offset ahead, so the queue stays at its initial depth and each
// insert lands at a random rank — the run queue's worst case, since it
// shifts a random share of the queue instead of a few entries near the
// front.
type holdRandom struct {
	s    *Scheduler
	x    uint64 // xorshift state
	left int    // dispatches still to reschedule before stopping
}

func (h *holdRandom) offset() time.Duration {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	return time.Duration(1 + h.x%(1<<20))
}

func (h *holdRandom) OnEvent(Arg) {
	if h.left == 0 {
		h.s.Stop()
		return
	}
	h.left--
	mustSchedule(h.s.AfterCall(h.offset(), h, Arg{}))
}

// BenchmarkSchedulerHoldRandom measures one dispatch plus one random-rank
// insert per event at a steady queue depth of 16, 1k and 10k, and reports
// ns/event.
func BenchmarkSchedulerHoldRandom(b *testing.B) {
	for _, depth := range []int{16, 1000, 10_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			h := &holdRandom{s: NewScheduler(), x: 88172645463325252}
			for k := 0; k < depth; k++ {
				mustSchedule(h.s.AfterCall(h.offset(), h, Arg{}))
			}
			h.left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			if err := h.s.Run(); err != ErrStopped {
				b.Fatalf("Run = %v, want ErrStopped", err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
