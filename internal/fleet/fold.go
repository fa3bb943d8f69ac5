package fleet

import (
	"fmt"
	"io"

	"iothub/internal/hub"
	"iothub/internal/obs"
)

// Fold is the only path a finished scenario takes into a sweep's result.
// Run folds its worker pool's records through it and the fleetd
// coordinator folds shard submissions through it, so the two engines share
// one resume replay, one reorder buffer, one journal writer and one set of
// gauge updates, and cannot drift apart.
//
// Records may arrive in any order; each is applied only when its turn in
// scenario-index order comes. That order is what makes the aggregates, and
// the journal bytes, independent of worker count, shard layout and
// completion order. A Fold is not goroutine-safe.
type Fold struct {
	res      *Result
	header   journalHeader
	tags     []string
	limit    int                // MaxScenarios-truncated sweep size
	early    map[int]DoneRecord // records that finished ahead of their turn
	jw       *journalWriter
	gauges   *obs.Gauges
	progress io.Writer
	err      error
}

// OpenFold starts folding scens, the expansion of spec, under opt's Journal,
// Resume, MaxScenarios, Gauges and Progress. Resuming folds the journal's
// records as it reads them, then drops a partial final record that a crash
// mid-write left behind; otherwise an existing journal is truncated and the
// sweep starts over. opt.Workers only sizes the worker gauge.
func OpenFold(spec Spec, scens []hub.Scenario, opt Options) (*Fold, error) {
	f := &Fold{
		res:      &Result{Agg: NewAggregator(), Scenarios: len(scens)},
		header:   newJournalHeader(spec, scens),
		tags:     make([]string, len(scens)),
		limit:    len(scens),
		early:    map[int]DoneRecord{},
		gauges:   opt.Gauges,
		progress: opt.Progress,
	}
	for i, s := range scens {
		f.tags[i] = Tag(s)
	}
	if opt.MaxScenarios > 0 && opt.MaxScenarios < f.limit {
		f.limit = opt.MaxScenarios
	}
	if f.gauges == nil {
		f.gauges = obs.NewGauges()
	}
	f.gauges.StartSweep(len(scens), opt.Workers)

	if opt.Resume {
		if opt.Journal == "" {
			return nil, fmt.Errorf("fleet: resume requested without a journal path")
		}
		if err := f.replay(opt.Journal); err != nil {
			return nil, err
		}
		f.res.Resumed = f.res.Completed
	}
	if opt.Journal != "" {
		jw, err := newJournalWriter(opt.Journal, f.header, !opt.Resume)
		if err != nil {
			return nil, err
		}
		f.jw = jw
	}
	return f, nil
}

// Next is the first scenario index not yet folded: where execution resumes.
func (f *Fold) Next() int { return f.res.Completed }

// Limit is the index the fold stops before: the sweep size, or MaxScenarios.
// Callers run only scenarios in [Next, Limit).
func (f *Fold) Limit() int { return f.limit }

// SpecFingerprint is the sweep identity the journal header carries.
func (f *Fold) SpecFingerprint() string { return f.header.Spec }

// Result is the sweep as folded so far.
func (f *Fold) Result() *Result { return f.res }

// Add takes finished records in any order. Each record whose turn has come
// is applied to the aggregates, journaled, and every snapEvery scenarios
// fingerprinted; the rest wait in the reorder buffer. The first journal
// error stops the fold: Add returns it, now and on every later call.
func (f *Fold) Add(records ...DoneRecord) error {
	if f.err != nil {
		return f.err
	}
	for _, d := range records {
		f.early[d.Index] = d
	}
	for {
		d, ok := f.early[f.Next()]
		if !ok {
			return nil
		}
		delete(f.early, d.Index)
		f.apply(d)
		err := f.jw.write(journalLine{Done: &d})
		if n := f.res.Completed; err == nil && (n%snapEvery == 0 || n == f.res.Scenarios) {
			fp := f.res.Agg.Fingerprint()
			f.gauges.SetFingerprint(fp)
			err = f.jw.write(journalLine{Snap: &journalSnap{Applied: n, FP: fp}})
		}
		if err != nil {
			f.err = err
			return err
		}
		progress(f.progress, f.res, f.gauges)
	}
}

// Close publishes the final fingerprint, closes the journal, and returns the
// result folded so far with the fold's first error, if any.
func (f *Fold) Close() (*Result, error) {
	f.gauges.SetFingerprint(f.res.Agg.Fingerprint())
	if err := f.jw.close(); err != nil && f.err == nil {
		f.err = err
	}
	return f.res, f.err
}

// apply folds one record whose turn has come into the result and gauges.
func (f *Fold) apply(d DoneRecord) {
	if d.Err != "" {
		f.res.Agg.ApplyError()
		f.res.Failed = append(f.res.Failed, ScenarioError{Index: d.Index, Label: d.Label, Err: d.Err})
	} else {
		f.res.Agg.Apply(f.tags[d.Index], d.Metrics)
	}
	f.res.Completed++
	f.gauges.ScenarioDone(d.Err != "")
}

// progress prints a structured one-line JSON status at ~1/16 completion
// steps (and at the end) so long sweeps stay observable without flooding the
// terminal and CI logs stay machine-parseable.
func progress(w io.Writer, res *Result, g *obs.Gauges) {
	if w == nil {
		return
	}
	step := max(res.Scenarios/16, 1)
	if res.Completed%step != 0 && res.Completed != res.Scenarios {
		return
	}
	s := g.Read()
	fmt.Fprintf(w, `{"done":%d,"total":%d,"errors":%d,"rate_per_sec":%.2f,"eta_sec":%.1f}`+"\n",
		res.Completed, res.Scenarios, res.Agg.Errors, s.RatePerSec, s.ETASeconds)
}
