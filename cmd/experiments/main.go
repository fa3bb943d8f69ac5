// Command experiments regenerates the paper's tables and figures from the
// simulator.
//
// Usage:
//
//	experiments -all                 # every table and figure
//	experiments -id fig10            # one experiment
//	experiments -id fig11 -format csv
//	experiments -all -format md      # markdown (EXPERIMENTS.md style)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iothub/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	all := fs.Bool("all", false, "run every paper experiment")
	ablations := fs.Bool("ablations", false, "run the ablation studies")
	id := fs.String("id", "", "run one experiment (fig1..fig13, table1, table2, abl-*)")
	format := fs.String("format", "ascii", "output format: ascii, csv, or md")
	chart := fs.Bool("chart", false, "also render bar charts where the figure has one")
	outDir := fs.String("out", "", "also write each artifact to <dir>/<id>.<ext>")
	list := fs.Bool("list", false, "list available experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range append(experiments.All(), experiments.Ablations()...) {
			fmt.Fprintf(out, "%-14s %s\n", e.ID, e.Title)
		}
		return nil
	}

	ext := map[string]string{"ascii": "txt", "csv": "csv", "md": "md"}[*format]
	if ext == "" {
		return fmt.Errorf("unknown format %q", *format)
	}
	var selected []experiments.Experiment
	switch {
	case *id != "" && (*all || *ablations):
		return fmt.Errorf("-id excludes -all and -ablations")
	case *id != "":
		e, err := experiments.ByID(*id)
		if err != nil {
			return err
		}
		selected = []experiments.Experiment{e}
	case !*all && !*ablations:
		return fmt.Errorf("nothing to do: pass -all, -id <exp>, or -list")
	}
	if *all {
		selected = experiments.All()
	}
	if *ablations {
		selected = append(selected, experiments.Ablations()...)
	}

	results, err := experiments.Regenerate(selected)
	if err != nil {
		return err
	}
	for _, res := range results {
		if *outDir != "" {
			err := os.MkdirAll(*outDir, 0o755)
			if err == nil {
				err = os.WriteFile(filepath.Join(*outDir, res.ID+"."+ext), []byte(text(res, *format, true)), 0o644)
			}
			if err != nil {
				return err
			}
		}
		if *format == "csv" {
			fmt.Fprint(out, text(res, *format, *chart))
		} else {
			fmt.Fprintln(out, text(res, *format, *chart))
		}
	}
	return nil
}

// text renders one artifact in format; an ASCII table carries its bar chart
// below it when chart is set.
func text(res *experiments.Result, format string, chart bool) string {
	switch {
	case format == "csv":
		return res.Table.CSV()
	case format == "md":
		return res.Table.Markdown()
	case chart && res.Chart != nil:
		return res.Table.ASCII() + "\n" + res.Chart.ASCII()
	}
	return res.Table.ASCII()
}
