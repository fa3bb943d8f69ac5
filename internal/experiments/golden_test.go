// Golden paper artifacts: every table and figure of All(), and every
// ablation but abl-profile, is pinned as text — its ID, its ASCII table, and
// its named values sorted by name at full precision — so a change to any
// number behind the paper's evaluation or an ablation fails go test.
// Regenerate (only for a deliberate semantic change) with:
//
//	go test ./internal/experiments -run ArtifactsGolden -update
package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed artifact goldens")

// artifactText renders what the golden pins of one artifact.
func artifactText(res *Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n%s\n", res.ID, res.Table.ASCII())
	for _, k := range slices.Sorted(maps.Keys(res.Values)) {
		fmt.Fprintf(&b, "%s = %s\n", k, strconv.FormatFloat(res.Values[k], 'g', -1, 64))
	}
	return b.Bytes()
}

// goldenArtifacts lists what the goldens pin: the paper artifacts, then the
// ablations except abl-profile, whose columns are the host's measured
// allocations and wall-clock timings.
func goldenArtifacts() []Experiment {
	out := All()
	for _, e := range Ablations() {
		if e.ID != "abl-profile" {
			out = append(out, e)
		}
	}
	return out
}

// TestArtifactsGolden regenerates every pinned artifact in one pass and
// compares each with its committed golden, rewriting the golden under
// -update.
func TestArtifactsGolden(t *testing.T) {
	exps := goldenArtifacts()
	results, err := Regenerate(exps)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			got := artifactText(results[i])
			path := filepath.Join("testdata", "artifacts", e.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update to record): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s diverged from its golden; regenerate with -update ONLY for a deliberate semantic change.\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
