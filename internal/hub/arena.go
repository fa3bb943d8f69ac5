package hub

// The scenario arena: a reusable per-worker execution context. A fleet sweep
// runs thousands of scenarios back to back, and constructing a fresh
// scheduler + meter + device stack + bookkeeping maps for every one of them
// dominated the sweep's allocation profile. An Arena owns one of everything
// and renews it in place: the first Run builds the device stack, and every
// later Run resets the same objects — scheduler event arena, meter tracks,
// device state, appState/stream maps, the RunResult — with their container
// capacity intact. Each device's New only binds its identity and calls its
// Reset, so a built stack and a reset one start from the same state, and
// results are byte-identical either way; the golden corpus is replayed
// through a reused arena in arena_test.go to prove it.
//
// Retention contract: the *RunResult returned by an Arena's Run — and
// everything reachable from it (Outputs slices, PerComponent map, ...) — is
// only valid until the next Run on the same arena, because the backing
// storage is recycled. Callers copy what they keep. The package-level Run
// constructs a throwaway arena per call, so its results remain immortal as
// always.
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
	"iothub/internal/sim"
)

// Arena is a reusable execution context for back-to-back scenario runs.
// The zero value is ready to use; NewArena is the conventional spelling.
type Arena struct {
	r runner
}

// NewArena returns an empty arena. Its first Run builds the device stack;
// subsequent Runs reset it.
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
// armed, and the CPU's idle policy applied.
func (a *Arena) prepare(cfg Config) (*runner, error) {
	params, modes, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	r := &a.r
	if err := r.renew(cfg, params); err != nil {
		return nil, err
	}
	r.renewResult(modes)
	if err := r.build(modes); err != nil {
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
	r.governCPU()
	return r, nil
}

// renew readies the runner for a run. Everything a run fills starts at its
// zero value; what survives is the device stack, the arena pools, the
// RunResult, the storage of the per-run lists, and the compiled harvest
// trace with its key and horizon (armPower revalidates the key).
func (r *runner) renew(cfg Config, params Params) error {
	// Recycle the previous run's per-run objects into the pools (no-ops on
	// first use). This also scrubs state left behind by an errored run.
	for _, st := range r.states {
		r.putState(st)
	}
	for _, s := range r.streams {
		r.putStream(s)
	}
	*r = runner{
		cfg:    cfg,
		params: params,
		window: cfg.Apps[0].Spec().Window,

		sched:     r.sched,
		meter:     r.meter,
		cpu:       r.cpu,
		mcu:       r.mcu,
		link:      r.link,
		mainRadio: r.mainRadio,
		mcuRadio:  r.mcuRadio,
		obs:       params.Obs,

		states:    r.states[:0],
		streams:   r.streams[:0],
		crashRedo: r.crashRedo[:0],
		xfers:     r.xfers[:0],
		xferFree:  r.xferFree[:0],
		supply: supplyState{steps: r.supply.steps, traceSrc: r.supply.traceSrc,
			traceHzn: r.supply.traceHzn, redo: r.supply.redo[:0]},

		statePool:  r.statePool,
		streamPool: r.streamPool,
		uploadPool: r.uploadPool,
		edgePool:   r.edgePool,
		res:        r.res,
	}
	if err := r.renewStack(); err != nil {
		return err
	}
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

// renewStack resets the device stack in construction order, so the meter
// re-registers tracks in the same component order and results stay
// byte-identical. An arena without a stack builds one; the MCU radio, built
// last, marks a stack as complete, so a build that failed part-way is redone
// in full.
func (r *runner) renewStack() error {
	p := r.params
	if r.mcuRadio == nil {
		r.sched = sim.NewScheduler()
		r.meter = energy.NewMeter(r.sched)
		var err error
		if r.cpu, err = cpu.New(r.sched, r.meter, "cpu", p.CPU); err != nil {
			return err
		}
		if r.mcu, err = mcu.New(r.sched, r.meter, "mcu", p.MCU); err != nil {
			return err
		}
		if r.link, err = link.New(r.sched, r.meter, "link", p.Link); err != nil {
			return err
		}
		if r.mainRadio, err = radio.New(r.sched, r.meter, "radio:main", p.MainRadio); err != nil {
			return err
		}
		r.mcuRadio, err = radio.New(r.sched, r.meter, "radio:mcu", p.MCURadio)
		return err
	}
	r.sched.Reset()
	r.meter.Reset()
	if err := r.cpu.Reset(p.CPU); err != nil {
		return err
	}
	if err := r.mcu.Reset(p.MCU); err != nil {
		return err
	}
	if err := r.link.Reset(p.Link); err != nil {
		return err
	}
	if err := r.mainRadio.Reset(p.MainRadio); err != nil {
		return err
	}
	return r.mcuRadio.Reset(p.MCURadio)
}

// renewResult readies the RunResult, building it on first use: the two
// long-lived maps are cleared in place, everything else returns to the zero
// value. WindowFaults, Degradations, and Traces must come back as nil, not
// emptied containers — fault-free runs serialize them as null and tests
// assert it.
func (r *runner) renewResult(modes map[apps.ID]Mode) {
	if r.res == nil {
		r.res = &RunResult{
			Outputs:      make(map[apps.ID][]WindowResult, len(r.cfg.Apps)),
			PerComponent: make(map[string]energy.Breakdown),
		}
	}
	clear(r.res.Outputs)
	clear(r.res.PerComponent)
	*r.res = RunResult{Scheme: r.cfg.Scheme, Modes: modes,
		Outputs: r.res.Outputs, PerComponent: r.res.PerComponent}
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

// putState pools one app state at its zero value, keeping only the storage
// of its lists. uploadBytes goes back to its own pool: a nil map is
// behavior-bearing (the transfer chain only stages upload bytes for OnEdge
// apps), so pooled states always carry nil and build() re-attaches a map only
// to OnEdge placements. The per-window slices keep their contents; build()
// resizes and refills them (sizeWindows) before the state is used again.
func (r *runner) putState(st *appState) {
	if st.uploadBytes != nil {
		clear(st.uploadBytes)
		r.uploadPool = append(r.uploadPool, st.uploadBytes)
	}
	*st = appState{
		modeChanges:     st.modeChanges[:0],
		batchRefs:       st.batchRefs[:0],
		offloadInFlight: st.offloadInFlight,
		readsDone:       st.readsDone,
		delivered:       st.delivered,
		expected:        st.expected,
		fired:           st.fired,
		pendingFlushes:  st.pendingFlushes,
		results:         st.results[:0],
	}
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

// putStream pools one stream at its zero value, keeping only the storage of
// its consumer list and retry maps. The maps stay allocated (cleared):
// noteRetry lazily creates them on nil, so a pooled pair behaves identically
// to a fresh nil pair.
func (r *runner) putStream(s *stream) {
	clear(s.retriesInWindow)
	clear(s.downshifted)
	*s = stream{consumers: s.consumers[:0], retriesInWindow: s.retriesInWindow, downshifted: s.downshifted}
	r.streamPool = append(r.streamPool, s)
}
