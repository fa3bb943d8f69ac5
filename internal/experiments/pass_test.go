package experiments

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"iothub/internal/hub"
)

// countRuns swaps the package's run seam for one that counts each
// scenario's executions by label, until the test ends.
func countRuns(t *testing.T) map[string]int {
	t.Helper()
	orig := runScenario
	t.Cleanup(func() { runScenario = orig })
	var mu sync.Mutex
	seen := map[string]int{}
	runScenario = func(s hub.Scenario, tune func(*hub.Config)) (*hub.RunResult, error) {
		mu.Lock()
		seen[s.Label()]++
		mu.Unlock()
		return orig(s, tune)
	}
	return seen
}

// checkOnce fails unless want runs executed, each scenario once.
func checkOnce(t *testing.T, label string, seen map[string]int, want int) {
	t.Helper()
	total := 0
	for s, n := range seen {
		total += n
		if n != 1 {
			t.Errorf("%s: %s executed %d times", label, s, n)
		}
	}
	if total != want || len(seen) != want {
		t.Errorf("%s: %d runs over %d scenarios, want %d distinct", label, total, len(seen), want)
	}
}

// TestPassRunsEachDistinctRunOnce pins the pass's traffic: the 14 paper
// artifacts read 126 hub runs but only 84 distinct ones (Fig. 5's two
// traced runs among them), and Fig. 13 alone reads 20. Any pool size
// renders the same artifacts.
func TestPassRunsEachDistinctRunOnce(t *testing.T) {
	seen := countRuns(t)
	serial, err := regenerate(All(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkOnce(t, "All, 1 worker", seen, 84)

	clear(seen)
	pooled, err := regenerate(All(), 4)
	if err != nil {
		t.Fatal(err)
	}
	checkOnce(t, "All, 4 workers", seen, 84)
	for i, a := range serial {
		b := pooled[i]
		if !bytes.Equal(artifactText(a), artifactText(b)) {
			t.Errorf("%s differs between 1 and 4 workers:\n%s\nvs\n%s", a.ID, artifactText(a), artifactText(b))
		}
		if (a.Chart == nil) != (b.Chart == nil) || a.Chart != nil && a.Chart.ASCII() != b.Chart.ASCII() {
			t.Errorf("%s chart differs between 1 and 4 workers", a.ID)
		}
	}

	clear(seen)
	if _, err := Fig13(); err != nil {
		t.Fatal(err)
	}
	checkOnce(t, "fig13", seen, 20)
}

// TestPassErrorsNameArtifact checks that a failing run fails the pass as
// "<artifact>: <scenario label>: <err>", naming the first artifact that
// declares it, and that a render reading a run it did not declare fails.
func TestPassErrorsNameArtifact(t *testing.T) {
	orig := runScenario
	t.Cleanup(func() { runScenario = orig })
	boom := errors.New("boom")
	runScenario = func(s hub.Scenario, tune func(*hub.Config)) (*hub.RunResult, error) {
		if s.Label() == "A2/Batching/w3" {
			return nil, boom
		}
		return orig(s, tune)
	}
	var exps []Experiment
	for _, id := range []string{"fig4", "fig7", "fig9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	_, err := regenerate(exps, 2)
	if want := "fig7: A2/Batching/w3: boom"; err == nil || err.Error() != want || !errors.Is(err, boom) {
		t.Errorf("failing run: err = %v, want %q", err, want)
	}

	runScenario = orig
	probe := Experiment{ID: "probe", needs: fig4Runs, render: fig7}
	_, err = regenerate([]Experiment{probe}, 1)
	if want := "probe: render reads undeclared run A2/Batching/w3"; err == nil || err.Error() != want {
		t.Errorf("undeclared read: err = %v, want %q", err, want)
	}
}
