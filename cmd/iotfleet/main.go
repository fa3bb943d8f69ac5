// Command iotfleet runs a declarative sweep of hub scenarios on a worker
// pool and prints the streaming aggregates (mean/std and P50/P95/P99 per
// scheme or tag). Sweeps are deterministic for any worker count, and with a
// journal they checkpoint after every scenario and resume with -resume.
//
// Usage:
//
//	iotfleet -spec sweep.json
//	iotfleet -spec sweep.json -workers 8 -progress
//	iotfleet -spec sweep.json -journal run.jsonl            # checkpointed
//	iotfleet -spec sweep.json -journal run.jsonl -resume    # continue
//	iotfleet -spec sweep.json -format csv
//
// Service mode shards one sweep across worker processes (see DESIGN.md §10):
//
//	iotfleet serve -spec sweep.json -addr 127.0.0.1:0 -addr-file addr.txt
//	iotfleet work -addr-file addr.txt -id w1     # any number of these
//
// Optimize mode searches the scheme-composition space for an app mix and
// emits the minimum-energy plan with its Pareto front (see DESIGN.md §11):
//
//	iotfleet optimize -spec search.json -out plan.json
//	iotfleet optimize -check-replay plan.json    # verify byte-identical replay
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iothub/internal/fleet"
	"iothub/internal/obs"
	"iothub/internal/profiling"
	"iothub/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iotfleet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:], out)
		case "work":
			return runWork(args[1:], out)
		case "optimize":
			return runOptimize(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("iotfleet", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec file (JSON; see internal/fleet/testdata/smoke.json)")
	workers := fs.Int("workers", 0, "worker pool size (0 = spec's workers, then GOMAXPROCS)")
	journal := fs.String("journal", "", "checkpoint journal path (JSON lines; enables -resume)")
	resume := fs.Bool("resume", false, "replay the journal and continue from the first unfinished scenario")
	progress := fs.Bool("progress", false, "print structured JSON progress lines to stderr while the sweep runs")
	metricsAddr := fs.String("metrics-addr", "", "serve live sweep gauges in Prometheus text format on this address (e.g. :9090)")
	format := fs.String("format", "ascii", "output format: ascii, csv, or markdown")
	aggOut := fs.String("agg-out", "", "also write the merged aggregates as canonical JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the sweep to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	render, err := renderer(*format)
	if err != nil {
		return err
	}
	spec, err := fleet.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	opt := fleet.Options{Workers: *workers, Journal: *journal, Resume: *resume}
	if *progress {
		opt.Progress = os.Stderr
	}
	var srv *obs.Server
	if *metricsAddr != "" {
		opt.Gauges = obs.NewGauges()
		srv, err = obs.StartMetricsServer(*metricsAddr, opt.Gauges)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics on %s\n", srv.Addr())
	}
	res, err := fleet.Run(spec, opt)
	if err != nil {
		return err
	}
	if *aggOut != "" {
		if err := os.WriteFile(*aggOut, res.Agg.JSON(), 0o644); err != nil {
			return err
		}
	}
	if srv != nil {
		// Self-scrape once so every instrumented sweep proves its own
		// endpoint end-to-end (CI greps this for the final gauge values).
		text, err := obs.Scrape(srv.Addr())
		if err != nil {
			return fmt.Errorf("metrics self-scrape: %w", err)
		}
		fmt.Fprintf(os.Stderr, "metrics: final scrape of %s:\n%s", srv.Addr(), text)
	}

	title := fmt.Sprintf("fleet sweep: %d scenarios (seed %d), energy in J/window",
		res.Scenarios, spec.Seed)
	t := report.AggregateTable(title, aggRows(res.Agg))
	if res.Resumed > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("resumed %d scenarios from the journal", res.Resumed))
	}
	fmt.Fprint(out, render(t))
	for _, f := range res.Failed {
		fmt.Fprintf(out, "failed: scenario %d %s: %s\n", f.Index, f.Label, f.Err)
	}
	if res.Agg.Errors > 0 {
		return fmt.Errorf("%d of %d scenarios failed", res.Agg.Errors, res.Completed)
	}
	return nil
}

func renderer(format string) (func(*report.Table) string, error) {
	switch format {
	case "ascii":
		return (*report.Table).ASCII, nil
	case "csv":
		return (*report.Table).CSV, nil
	case "markdown":
		return (*report.Table).Markdown, nil
	default:
		return nil, fmt.Errorf("unknown -format %q (want ascii, csv, or markdown)", format)
	}
}

func aggRows(a *fleet.Aggregator) []report.AggRow {
	var rows []report.AggRow
	for _, key := range a.Keys() {
		m := a.Metric(key)
		rows = append(rows, report.AggRow{
			Metric: key, Count: m.Count(),
			Mean: m.Mean(), Std: m.Std(), Min: m.Min(), Max: m.Max(),
			P50: m.Quantile(0.5), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
		})
	}
	return rows
}
