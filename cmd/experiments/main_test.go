package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iothub/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/all-chart.txt")

// TestAllChartGolden pins `experiments -all -chart` byte for byte: every
// table, the Fig. 10/11/13 bar charts, and the order they print in.
// Re-record (only for a deliberate change) with:
//
//	go test ./cmd/experiments -run AllChartGolden -update
func TestAllChartGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-all", "-chart"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join("testdata", "all-chart.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to record): %v", path, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-all -chart output diverged from %s; re-record with -update ONLY for a deliberate change.\ngot:\n%s", path, out.Bytes())
	}
}

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"table1", "fig13", "abl-dma"} {
		if !strings.Contains(s, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestSingleExperimentFormats(t *testing.T) {
	for format, marker := range map[string]string{
		"ascii": "Table I: sensor specifications",
		"csv":   "id,name,bus",
		"md":    "| --- |",
	} {
		var out bytes.Buffer
		if err := run([]string{"-id", "table1", "-format", format}, &out); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !strings.Contains(out.String(), marker) {
			t.Errorf("%s output missing %q:\n%s", format, marker, out.String())
		}
	}
}

func TestAblationByID(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-id", "abl-governor"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "sleep disabled") {
		t.Error("ablation output missing")
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no action accepted")
	}
	if err := run([]string{"-all", "-id", "fig1"}, &out); err == nil {
		t.Error("-all with -id accepted")
	}
	if err := run([]string{"-ablations", "-id", "fig1"}, &out); err == nil {
		t.Error("-ablations with -id accepted")
	}
	// main prints "experiments: " before the error, so the error itself must
	// not start with that prefix again.
	err := run([]string{"-id", "fig99"}, &out)
	if !errors.Is(err, experiments.ErrUnknown) {
		t.Errorf("unknown id: err = %v, want experiments.ErrUnknown", err)
	} else if want := `unknown experiment: "fig99"`; err.Error() != want {
		t.Errorf("unknown id: err = %q, want %q", err, want)
	}
	if err := run([]string{"-id", "table1", "-format", "xml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestOutDirWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-id", "table1", "-format", "csv", "-out", dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	if !strings.Contains(string(data), "Accelerometer") {
		t.Errorf("artifact content wrong:\n%s", data)
	}
}
