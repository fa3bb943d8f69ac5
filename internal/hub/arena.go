package hub

// The scenario arena: a reusable per-worker execution context. A fleet sweep
// runs thousands of scenarios back to back, and constructing a fresh
// scheduler + meter + device stack + bookkeeping maps for every one of them
// dominated the sweep's allocation profile. An Arena owns one of everything
// and a renew path that reinitializes it in place: the first Run constructs
// exactly what the package-level Run always constructed; every later Run
// revives the same objects — scheduler event arena, meter tracks, device
// state, appState/stream maps, the RunResult — with their container capacity
// intact. Results are byte-identical either way; the golden corpus is
// replayed through a reused arena in golden_scheme_test.go to prove it.
//
// Retention contract: the *RunResult returned by an Arena's Run — and
// everything reachable from it (Outputs slices, PerComponent map, ...) — is
// only valid until the next Run on the same arena, because the backing
// storage is recycled. Callers that keep results across runs must Clone()
// first. The package-level Run and RunScenario construct a throwaway arena
// per call, so their results remain immortal as always.
//
// An Arena is not safe for concurrent use; fleet gives each worker its own.

import (
	"fmt"

	"iothub/internal/apps"
	"iothub/internal/cpu"
	"iothub/internal/energy"
	"iothub/internal/link"
	"iothub/internal/mcu"
	"iothub/internal/radio"
	"iothub/internal/scheme"
	"iothub/internal/sim"
)

// Arena is a reusable execution context for back-to-back scenario runs.
// The zero value is ready to use; NewArena is the conventional spelling.
type Arena struct {
	r runner
	// used marks a successfully renewed arena; a renew error clears it so
	// the next Run rebuilds the stack from scratch instead of reusing a
	// half-reset one.
	used bool
}

// NewArena returns an empty arena. Its first Run performs ordinary
// construction; subsequent Runs reuse everything.
func NewArena() *Arena { return &Arena{} }

// Run executes one configured scenario in the arena. See the package-level
// Run for semantics; the only difference is the retention contract above.
func (a *Arena) Run(cfg Config) (*RunResult, error) {
	r, err := a.prepare(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.scheduleAll(); err != nil {
		return nil, err
	}
	if err := r.sched.Run(); err != nil {
		if r.runErr != nil {
			return nil, r.runErr
		}
		return nil, err
	}
	if r.runErr != nil {
		return nil, r.runErr
	}
	r.collect()
	if err := r.res.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("hub: run invariant violated: %w", err)
	}
	return r.res, nil
}

// prepare readies the arena's runner for cfg up to its first sensor read:
// device stack renewed, stream topology built, fault/meter/power subsystems
// armed, and the CPU's idle policy primed.
func (a *Arena) prepare(cfg Config) (*runner, error) {
	params, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	pols, err := cfg.policies()
	if err != nil {
		return nil, err
	}
	r := &a.r
	if err := r.renew(cfg, params, a.used); err != nil {
		a.used = false
		return nil, err
	}
	a.used = true
	r.renewResult(pols)
	if err := r.build(pols); err != nil {
		return nil, err
	}
	if err := r.armFaults(); err != nil {
		return nil, err
	}
	if err := r.armMeter(); err != nil {
		return nil, err
	}
	if err := r.armPower(); err != nil {
		return nil, err
	}
	r.prime()
	return r, nil
}

// RunScenario materializes and executes the scenario in the arena — the
// arena-reusing sibling of the package-level RunScenario, with the same
// partition requirement.
func (a *Arena) RunScenario(s Scenario) (*RunResult, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	def, err := scheme.Lookup(s.Scheme)
	if err != nil {
		return nil, err
	}
	if def.RequiresAssign() && s.Assign == nil {
		return nil, fmt.Errorf("%w: %v scenario %s needs an assignment (use fleet.RunScenario, or set Assign)", ErrConfig, s.Scheme, s.Label())
	}
	return a.Run(cfg)
}

// renew readies the runner for a run: first use constructs the device stack
// exactly as the pre-arena Run did; reuse resets every component in the
// original construction order, so the meter re-registers tracks in the same
// component order and results stay byte-identical.
func (r *runner) renew(cfg Config, params Params, reuse bool) error {
	// Recycle the previous run's per-run objects into the pools (no-ops on
	// first use). This also scrubs state left behind by an errored run.
	for _, st := range r.states {
		r.putState(st)
	}
	r.states = r.states[:0]
	for _, s := range r.streams {
		r.putStream(s)
	}
	r.streams = r.streams[:0]
	r.xfers = r.xfers[:0]
	r.xferFree = r.xferFree[:0]
	r.engine = nil
	r.pol = nil
	r.linkFaulty = false
	r.horizon = 0
	r.offloadNeed = 0
	r.lastDegradedCrash = 0
	r.crashRedo = r.crashRedo[:0]
	r.gapHint = 0
	r.allowDeep = false
	r.edge = nil
	r.insitu = meterState{}
	// The compiled harvest trace and its key survive (armPower revalidates
	// the key), and so does the redo list's storage.
	r.supply = supplyState{steps: r.supply.steps, traceSrc: r.supply.traceSrc,
		traceHzn: r.supply.traceHzn, redo: r.supply.redo[:0]}
	r.runErr = nil

	r.cfg = cfg
	r.params = params
	r.window = cfg.Apps[0].Spec().Window

	if !reuse {
		r.sched = sim.NewScheduler()
		r.meter = energy.NewMeter(r.sched)
		// A previously pooled edge executor is bound to the old scheduler and
		// meter; drop it so build() constructs a fresh one if needed.
		r.edgePool = nil
		var err error
		if r.cpu, err = cpu.New(r.sched, r.meter, "cpu", params.CPU); err != nil {
			return err
		}
		if r.mcu, err = mcu.New(r.sched, r.meter, "mcu", params.MCU); err != nil {
			return err
		}
		if r.link, err = link.New(r.sched, r.meter, "link", params.Link); err != nil {
			return err
		}
		if r.mainRadio, err = radio.New(r.sched, r.meter, "radio:main", params.MainRadio); err != nil {
			return err
		}
		if r.mcuRadio, err = radio.New(r.sched, r.meter, "radio:mcu", params.MCURadio); err != nil {
			return err
		}
	} else {
		r.sched.Reset()
		r.meter.Reset()
		if err := r.cpu.Reset(params.CPU); err != nil {
			return err
		}
		if err := r.mcu.Reset(params.MCU); err != nil {
			return err
		}
		if err := r.link.Reset(params.Link); err != nil {
			return err
		}
		if err := r.mainRadio.Reset(params.MainRadio); err != nil {
			return err
		}
		if err := r.mcuRadio.Reset(params.MCURadio); err != nil {
			return err
		}
	}
	r.obs = params.Obs
	r.obs.Bind(r.sched)
	r.cpu.Observe(r.obs)
	r.mcu.Observe(r.obs)
	r.link.Observe(r.obs)
	r.mainRadio.Observe(r.obs)
	r.mcuRadio.Observe(r.obs)
	if cfg.TracePower {
		r.cpu.Track().EnableTrace()
		r.mcu.Track().EnableTrace()
	}
	return nil
}

// renewResult readies the reused RunResult: the two long-lived maps are
// cleared in place, everything else returns to the zero value. WindowFaults,
// Degradations, and Traces must come back as nil, not emptied containers —
// fault-free runs serialize them as null and tests assert it.
func (r *runner) renewResult(pols map[apps.ID]scheme.Policy) {
	if r.res == nil {
		r.res = &RunResult{
			Outputs:      make(map[apps.ID][]WindowResult, len(r.cfg.Apps)),
			PerComponent: make(map[string]energy.Breakdown),
		}
	} else {
		clear(r.res.Outputs)
		clear(r.res.PerComponent)
		*r.res = RunResult{Outputs: r.res.Outputs, PerComponent: r.res.PerComponent}
	}
	r.res.Scheme = r.cfg.Scheme
	r.res.Modes = scheme.ModesOf(pols)
}

// getState pops a scrubbed app state from the pool or constructs one.
func (r *runner) getState() *appState {
	if n := len(r.statePool); n > 0 {
		st := r.statePool[n-1]
		r.statePool = r.statePool[:n-1]
		return st
	}
	return &appState{}
}

// putState scrubs one app state back to its just-constructed shape and pools
// it. uploadBytes is stashed separately: a nil map is behavior-bearing (the
// transfer chain only stages upload bytes for OnEdge apps), so pooled states
// always carry nil and build() re-attaches a map only to OnEdge placements.
// The per-window slices keep their contents; build() resizes and refills
// them (sizeWindows) before the state is used again.
func (r *runner) putState(st *appState) {
	st.app = nil
	st.spec = apps.Spec{}
	st.modeChanges = st.modeChanges[:0]
	st.batchRefs = st.batchRefs[:0]
	st.batchFill = 0
	st.batchAllocd = 0
	if st.uploadBytes != nil {
		clear(st.uploadBytes)
		r.uploadPool = append(r.uploadPool, st.uploadBytes)
		st.uploadBytes = nil
	}
	st.edgeMI = 0
	st.results = st.results[:0]
	r.statePool = append(r.statePool, st)
}

// getUploadMap pops a cleared uploadBytes map from the pool or makes one.
func (r *runner) getUploadMap() map[int]int {
	if n := len(r.uploadPool); n > 0 {
		m := r.uploadPool[n-1]
		r.uploadPool = r.uploadPool[:n-1]
		return m
	}
	return make(map[int]int)
}

// getStream pops a scrubbed stream from the pool or constructs one.
func (r *runner) getStream() *stream {
	if n := len(r.streamPool); n > 0 {
		s := r.streamPool[n-1]
		r.streamPool = r.streamPool[:n-1]
		return s
	}
	return &stream{}
}

// putStream scrubs one stream and pools it. The retry maps stay allocated
// (cleared): noteRetry lazily creates them on nil, so a pooled pair behaves
// identically to a fresh nil pair.
func (r *runner) putStream(s *stream) {
	s.track = nil
	s.consumers = s.consumers[:0]
	s.attempts = 0
	clear(s.retriesInWindow)
	clear(s.downshifted)
	r.streamPool = append(r.streamPool, s)
}
