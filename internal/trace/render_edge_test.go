package trace

import (
	"strings"
	"testing"
)

// Degenerate renderer inputs: the ASCII chart must stay well-formed on
// one-row charts, non-positive heights, single bins, and the (nonsensical
// but possible) negative-watts sample.

func TestRenderASCIIHeightOne(t *testing.T) {
	out := RenderASCII([]float64{0, 3, 0.001}, 1)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("height-1 chart has %d lines, want chart row + axis:\n%s", len(lines), out)
	}
	// Any nonzero power is visible on the bottom row, zero is blank.
	if lines[0] != " ##" {
		t.Errorf("chart row = %q, want \" ##\"", lines[0])
	}
	if lines[1] != "---" {
		t.Errorf("axis = %q, want \"---\"", lines[1])
	}
}

func TestRenderASCIIHeightZeroOrNegative(t *testing.T) {
	if out := RenderASCII([]float64{1, 2}, 0); out != "" {
		t.Errorf("height 0 rendered %q, want empty", out)
	}
	if out := RenderASCII([]float64{1, 2}, -3); out != "" {
		t.Errorf("negative height rendered %q, want empty", out)
	}
}

func TestRenderASCIISingleBin(t *testing.T) {
	out := RenderASCII([]float64{4}, 3)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart has %d lines, want 3 rows + axis:\n%s", len(lines), out)
	}
	for i, line := range lines[:3] {
		if line != "#" {
			t.Errorf("row %d = %q, want full bar", i, line)
		}
	}
}

func TestRenderASCIINegativeWatts(t *testing.T) {
	// A negative bin never paints, and must not disturb its neighbors.
	out := RenderASCII([]float64{-1, 2}, 2)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("chart has %d lines:\n%s", len(lines), out)
	}
	if lines[0] != " #" || lines[1] != " #" {
		t.Errorf("rows = %q %q, want \" #\" twice", lines[0], lines[1])
	}
	if strings.Contains(lines[0]+lines[1], "-") {
		t.Errorf("negative bin leaked into the chart:\n%s", out)
	}
}
