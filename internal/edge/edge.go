// Package edge models the third compute tier above the hub: a remote
// container executor in the style of the ELCO simulation (container init
// cost per MB of footprint, transmit energy charged to the radio that
// carries the upload, round-trip latency on the virtual clock, and a
// weighted latency/energy objective).
//
// The tier is deliberately asymmetric to the hub's boards. The MCU sits
// below the CPU and saves energy by never waking it; the edge sits above
// and saves energy by never running the computation locally at all — the
// hub pays only the radio airtime for the window's samples plus a small
// driver/result cost, while the container's (much faster) execution is
// billed to its own "edge" energy track. A container is cold the first
// time an app lands on it: the init warmup is proportional to the app's
// resident footprint (the MHz/MB efficiency constant of the ELCO model),
// after which the container stays warm for the rest of the run.
//
// Like every other component model, the executor is pure discrete-event
// machinery over sim.Scheduler and energy.Meter: byte-identical results for
// a given scenario, no wall-clock anywhere.
package edge

import (
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// Params calibrates the edge tier.
type Params struct {
	// CapacityMIPS is the container slice's compute throughput. Edge
	// hardware is server-class: workloads run at their full instruction
	// demand (no EffectiveMIPS memory-bound cap as on the hub CPU).
	CapacityMIPS float64
	// ActiveW is the power the hub's energy ledger is billed while its
	// container computes (init included) — the per-execution energy
	// coefficient of the ELCO model expressed as watts at CapacityMIPS.
	ActiveW float64
	// IdleW is the idle draw of the hub's warm container slice. Providers
	// bill active time, so the default is 0; a nonzero value lands in the
	// Idle routine, which the energy comparisons exclude by construction
	// (Breakdown.Attributed).
	IdleW float64
	// InitPerMB is the cold-start container init warmup per MB of app
	// footprint (the SEC_CONT_INIT_EFFI MHz/MB constant, inverted into
	// time at CapacityMIPS).
	InitPerMB time.Duration
	// RTT is the hub<->edge network round trip; an upload pays RTT/2 up
	// and the result notification RTT/2 down.
	RTT time.Duration
	// ResultCPU is the hub-CPU cost to field the returned result.
	ResultCPU time.Duration
	// Omega weights the latency/energy objective: omega*(T/TRef) +
	// (1-omega)*(E/ERef). 0 optimizes energy only, 1 latency only.
	Omega float64
	// TRefSec / ERefJoules normalize the objective's two terms.
	TRefSec    float64
	ERefJoules float64
}

// DefaultParams is the edge calibration used throughout: a container slice
// 4x the hub CPU's throughput, billed ~1/4 the hub CPU's active power
// (amortized server + network infrastructure), with LAN-grade latency.
func DefaultParams() Params {
	return Params{
		CapacityMIPS: 96000,
		ActiveW:      1.2,
		IdleW:        0,
		InitPerMB:    100 * time.Microsecond,
		RTT:          20 * time.Millisecond,
		ResultCPU:    80 * time.Microsecond,
		Omega:        0.5,
		TRefSec:      5,
		ERefJoules:   5,
	}
}

// Validate checks the calibration for obvious inconsistencies.
func (p Params) Validate() error {
	if p.CapacityMIPS <= 0 {
		return fmt.Errorf("edge: CapacityMIPS %v", p.CapacityMIPS)
	}
	if p.ActiveW < 0 || p.IdleW < 0 {
		return fmt.Errorf("edge: negative power (active %v, idle %v)", p.ActiveW, p.IdleW)
	}
	if p.InitPerMB < 0 || p.RTT < 0 || p.ResultCPU < 0 {
		return fmt.Errorf("edge: negative duration (init/MB %v, rtt %v, result %v)", p.InitPerMB, p.RTT, p.ResultCPU)
	}
	if p.Omega < 0 || p.Omega > 1 {
		return fmt.Errorf("edge: omega %v outside [0,1]", p.Omega)
	}
	if p.TRefSec <= 0 || p.ERefJoules <= 0 {
		return fmt.Errorf("edge: non-positive objective references (T %v, E %v)", p.TRefSec, p.ERefJoules)
	}
	return nil
}

// InitTime is the cold-start warmup for an app of the given resident
// footprint.
func (p Params) InitTime(footprintBytes int) time.Duration {
	mb := float64(footprintBytes) / (1 << 20)
	return time.Duration(mb * float64(p.InitPerMB))
}

// ComputeTime is the container execution time for mi million instructions.
func (p Params) ComputeTime(mi float64) time.Duration {
	return time.Duration(mi / p.CapacityMIPS * float64(time.Second))
}

// Objective is the weighted latency/energy score: omega*(T/TRef) +
// (1-omega)*(E/ERef). Lower is better; the optimizer ranks plan candidates
// with it when neither latency nor energy alone decides.
func (p Params) Objective(latency time.Duration, joules float64) float64 {
	return p.Omega*(latency.Seconds()/p.TRefSec) + (1-p.Omega)*(joules/p.ERefJoules)
}

// The executor's typed events, scheduled by Submit.
const (
	opArrive = iota + 1 // an upload reached its container: one more job runs
	opFinish            // I0 index in Edge.submitted: that job finished
)

// job is one container execution, kept for the run so its finish event can
// name the app in its trace spans.
type job struct {
	app     string
	init    time.Duration // cold-start warmup, 0 when warm
	arrival sim.Time      // the upload reached the container
}

// Edge is the remote executor bound to one hub run's virtual clock and
// energy meter. Containers run concurrently (the machine behind the slice is
// big); the track integrates ActiveW per concurrently running job.
type Edge struct {
	params Params
	sched  *sim.Scheduler
	meter  *energy.Meter
	name   string
	track  *energy.Track
	rec    *obs.Recorder
	warm   map[string]bool
	active int
	// submitted lists the run's jobs in submission order; its length and
	// coldStarts are the run statistics the hub's collector reads back.
	submitted  []job
	coldStarts int
}

// New binds an edge executor to the scheduler and a named meter track.
func New(sched *sim.Scheduler, meter *energy.Meter, name string, params Params) (*Edge, error) {
	e := &Edge{sched: sched, meter: meter, name: name}
	if err := e.Reset(params); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset readies the executor for a new run: idle, every container cold,
// keeping only its identity, its warm-container map and its job table's
// storage. The scheduler and meter must have been reset first; the track is
// re-requested so it registers at this call's position in the meter's
// component order.
func (e *Edge) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	clear(e.warm)
	clear(e.submitted)
	*e = Edge{
		params:    params,
		sched:     e.sched,
		meter:     e.meter,
		name:      e.name,
		track:     e.meter.Track(e.name),
		warm:      e.warm,
		submitted: e.submitted[:0],
	}
	e.track.Set(params.IdleW, energy.Idle)
	return nil
}

// Observe attaches an observability recorder (nil disables the layer).
func (e *Edge) Observe(rec *obs.Recorder) { e.rec = rec }

// Jobs and ColdStarts report cumulative executions and cold container inits.
func (e *Edge) Jobs() int       { return len(e.submitted) }
func (e *Edge) ColdStarts() int { return e.coldStarts }

// Submit ships one window's computation to the app's container: RTT/2 up,
// a cold-start init proportional to the footprint on first use, the
// execution itself at CapacityMIPS, and RTT/2 back, after which done (the
// zero Done for none) is delivered — at the instant the result notification
// reaches the hub's network interface. The payload's airtime is the caller's:
// the hub charges its radio before submitting, so transmit energy lands on
// the radio track exactly like any other burst. Like radio.Transmit, the
// whole trip is scheduled up-front, so every scheduler error surfaces here;
// the executor's own events only move the power level.
func (e *Edge) Submit(app string, footprintBytes int, mi float64, done sim.Done) error {
	if mi < 0 {
		return fmt.Errorf("edge: negative compute demand %v MI", mi)
	}
	if footprintBytes < 0 {
		return fmt.Errorf("edge: negative footprint %d", footprintBytes)
	}
	var init time.Duration
	if !e.warm[app] {
		// The hub submits an app's windows in order, so the container's
		// warm/cold state at submission equals its state at arrival.
		if e.warm == nil {
			e.warm = make(map[string]bool)
		}
		e.warm[app] = true
		e.coldStarts++
		init = e.params.InitTime(footprintBytes)
	}
	busyStart := e.sched.Now().Add(e.params.RTT / 2)
	busyEnd := busyStart.Add(init + e.params.ComputeTime(mi))
	finish := sim.Arg{Op: opFinish, I0: int64(len(e.submitted))}
	e.submitted = append(e.submitted, job{app: app, init: init, arrival: busyStart})
	if _, err := e.sched.AtCall(busyStart, e, sim.Arg{Op: opArrive}); err != nil {
		return fmt.Errorf("edge: schedule arrival: %w", err)
	}
	if _, err := e.sched.AtCall(busyEnd, e, finish); err != nil {
		return fmt.Errorf("edge: schedule completion: %w", err)
	}
	if done.CB != nil {
		if _, err := e.sched.AtCall(busyEnd.Add(e.params.RTT/2), done.CB, done.Arg); err != nil {
			return fmt.Errorf("edge: schedule result return: %w", err)
		}
	}
	return nil
}

// OnEvent maintains the concurrency-aware power level: the track draws
// ActiveW per running job (attributed to AppCompute), falling back to IdleW
// when the slice drains. A finishing job also emits its trace spans.
func (e *Edge) OnEvent(a sim.Arg) {
	if a.Op == opArrive {
		e.active++
	} else {
		e.active--
	}
	if e.active > 0 {
		e.track.Set(e.params.ActiveW*float64(e.active), energy.AppCompute)
	} else {
		e.active = 0
		e.track.Set(e.params.IdleW, energy.Idle)
	}
	if a.Op == opFinish && e.rec.Tracing() {
		j := e.submitted[a.I0]
		if j.init > 0 {
			e.rec.Span("edge", "init "+j.app, j.arrival, j.arrival.Add(j.init))
		}
		e.rec.Span("edge", "compute "+j.app, j.arrival.Add(j.init), e.sched.Now())
	}
}
