package main

import (
	"fmt"
	"time"

	"iothub/internal/cpu"
	"iothub/internal/energy"
	"iothub/internal/link"
	"iothub/internal/mcu"
	"iothub/internal/radio"
	"iothub/internal/sim"
)

// The layer ladder: each rung drives one layer's public API directly, sized
// from the traced pass's exact counts for the workload, so the rungs can be
// set against hub.ns_per_event.

// probe repeats batch (which reports how many operations it did) for the
// budget after one warm-up batch, and returns the median ns per operation
// over the timed batches.
func probe(budget time.Duration, batch func() (int, error)) (float64, error) {
	if _, err := batch(); err != nil {
		return 0, err
	}
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		ops, err := batch()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// queueProbe is the bare scheduler at a workload's queue shape: depth events
// queued up front (three interleaved periodic streams, inserted stream by
// stream as the hub queues its sensor reads), each of which schedules
// follow-up events at a short delay until the dispatched total matches the
// workload's events per scenario.
type queueProbe struct {
	s          *sim.Scheduler
	perRead    float64
	credit     float64
	dispatched int
	err        error
}

const opFollow = 1

func (p *queueProbe) OnEvent(a sim.Arg) {
	p.dispatched++
	if a.Op == opFollow {
		return
	}
	p.credit += p.perRead
	for p.credit >= 1 {
		p.credit--
		if _, err := p.s.AfterCall(20*time.Microsecond, p, sim.Arg{Op: opFollow}); err != nil {
			p.err = err
		}
	}
}

func simProbe(budget time.Duration, depth, events int) (float64, error) {
	if depth < 1 {
		depth = 1
	}
	p := &queueProbe{s: sim.NewScheduler()}
	if events > depth {
		p.perRead = float64(events-depth) / float64(depth)
	}
	const streams = 3
	per := (depth + streams - 1) / streams
	period := time.Second / time.Duration(per)
	return probe(budget, func() (int, error) {
		p.s.Reset()
		p.credit, p.dispatched, p.err = 0, 0, nil
		queued := 0
		for st := 0; st < streams && queued < depth; st++ {
			phase := period * time.Duration(st) / streams
			for k := 0; k < per && queued < depth; k++ {
				at := sim.Time(phase + time.Duration(k)*period)
				if _, err := p.s.AtCall(at, p, sim.Arg{}); err != nil {
					return 0, err
				}
				queued++
			}
		}
		if err := p.s.Run(); err != nil {
			return 0, err
		}
		return p.dispatched, p.err
	})
}

// chain issues the next operation from each completion, n operations in all,
// the way the hub serialises IRQ handling, reads, and frames.
type chain struct {
	left  int
	issue func() error
	err   error
}

func (c *chain) OnEvent(sim.Arg) {
	if c.left == 0 || c.err != nil {
		return
	}
	c.left--
	c.err = c.issue()
}

// runChain resets the device stack, issues n operations back to back, and
// runs the scheduler dry.
func runChain(s *sim.Scheduler, reset func() error, c *chain, n int) (int, error) {
	ops := 0
	for ops < minBatchOps {
		s.Reset()
		if err := reset(); err != nil {
			return 0, err
		}
		c.left, c.err = n, nil
		c.OnEvent(sim.Arg{})
		if err := s.Run(); err != nil {
			return 0, err
		}
		if c.err != nil {
			return 0, c.err
		}
		ops += n
	}
	return ops, nil
}

// minBatchOps is the fewest operations one timed batch does: a chain shorter
// than this (a workload with few frames or bursts per scenario) is repeated.
const minBatchOps = 4096

func cpuProbe(budget time.Duration, n int) (float64, error) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	params := cpu.DefaultParams()
	dev, err := cpu.New(s, m, "cpu", params)
	if err != nil {
		return 0, err
	}
	c := &chain{}
	c.issue = func() error { return dev.ExecCall(48*time.Microsecond, energy.Interrupt, sim.Done{CB: c}) }
	reset := func() error { m.Reset(); return dev.Reset(params) }
	return probe(budget, func() (int, error) { return runChain(s, reset, c, n) })
}

func mcuProbe(budget time.Duration, n int) (float64, error) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	params := mcu.DefaultParams()
	dev, err := mcu.New(s, m, "mcu", params)
	if err != nil {
		return 0, err
	}
	c := &chain{}
	c.issue = func() error { return dev.ExecCall(30*time.Microsecond, energy.DataCollection, sim.Done{CB: c}) }
	reset := func() error { m.Reset(); return dev.Reset(params) }
	return probe(budget, func() (int, error) { return runChain(s, reset, c, n) })
}

func linkProbe(budget time.Duration, n, payload int) (float64, error) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	params := link.DefaultParams()
	dev, err := link.New(s, m, "link", params)
	if err != nil {
		return 0, err
	}
	c := &chain{}
	c.issue = func() error {
		d, err := dev.Transmit(payload, energy.DataTransfer)
		if err != nil {
			return err
		}
		_, err = s.AfterCall(d, c, sim.Arg{})
		return err
	}
	reset := func() error { m.Reset(); return dev.Reset(params) }
	return probe(budget, func() (int, error) { return runChain(s, reset, c, n) })
}

func radioProbe(budget time.Duration, n, payload int) (float64, error) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	params := radio.DefaultMainParams()
	dev, err := radio.New(s, m, "radio", params)
	if err != nil {
		return 0, err
	}
	c := &chain{}
	next := func() { c.OnEvent(sim.Arg{}) }
	c.issue = func() error { return dev.Transmit(payload, energy.DataTransfer, next) }
	reset := func() error { m.Reset(); return dev.Reset(params) }
	return probe(budget, func() (int, error) { return runChain(s, reset, c, n) })
}

// ladder runs every rung, sized from the pass's mean counts per scenario.
func (o *outcome) ladder(pass []scenarioObs, budget time.Duration) error {
	var c struct{ scheduled, dispatched, irqs, reads, frames, uart, bursts, radio float64 }
	for _, s := range pass {
		c.scheduled += float64(s.counts.scheduled)
		c.dispatched += float64(s.counts.events - s.counts.cancels)
		c.irqs += float64(s.counts.irqs)
		c.reads += float64(s.counts.reads)
		c.frames += float64(s.counts.frames)
		c.uart += float64(s.counts.uartBytes)
		c.bursts += float64(s.counts.bursts)
		c.radio += float64(s.counts.radioBytes)
	}
	k := float64(len(pass))
	atLeast1 := func(x float64) int {
		if x < 1 {
			return 1
		}
		return int(x + 0.5)
	}
	payload := func(bytes, ops float64) int {
		if ops == 0 {
			return 0
		}
		return int(bytes/ops + 0.5)
	}
	depth, events := atLeast1(c.scheduled/k), atLeast1(c.dispatched/k)
	rungs := []struct {
		name string
		run  func() (float64, error)
	}{
		{"sim.probe_ns_per_event", func() (float64, error) { return simProbe(budget, depth, events) }},
		{"cpu.exec_ns", func() (float64, error) { return cpuProbe(budget, atLeast1(c.irqs/k)) }},
		{"mcu.exec_ns", func() (float64, error) { return mcuProbe(budget, atLeast1(c.reads/k)) }},
		{"link.tx_ns", func() (float64, error) {
			return linkProbe(budget, atLeast1(c.frames/k), payload(c.uart, c.frames))
		}},
		{"radio.tx_ns", func() (float64, error) {
			return radioProbe(budget, atLeast1(c.bursts/k), payload(c.radio, c.bursts))
		}},
	}
	for _, r := range rungs {
		v, err := r.run()
		if err != nil {
			return fmt.Errorf("%s probe: %w", r.name, err)
		}
		o.metrics[r.name] = v
	}
	if hub := o.metrics["hub.ns_per_event"]; hub > 0 {
		o.metrics["ladder.sim_share"] = o.metrics["sim.probe_ns_per_event"] / hub
	}
	o.notef("ladder: queue depth %d, %d events/scenario; sim %.1f ns/event of hub %.1f ns/event",
		depth, events, o.metrics["sim.probe_ns_per_event"], o.metrics["hub.ns_per_event"])
	return nil
}
