package fleet

import (
	"path/filepath"
	"testing"
)

// The first journal write error stops the fold: Add returns it on every
// later call, the pool stops handing over records, and Close reports it.
func TestJournalErrorStopsFold(t *testing.T) {
	spec := testSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFold(spec, scens, Options{Journal: filepath.Join(t.TempDir(), "fleet.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	f.jw.f.Close() // every later journal write fails
	emitted := 0
	err = pool(scens, f.Next(), f.Limit(), 1, nil, func(d DoneRecord) error {
		emitted++
		return f.Add(d)
	})
	if err == nil {
		t.Fatal("pool finished despite the journal error")
	}
	if emitted != 1 {
		t.Errorf("pool emitted %d records, want to stop after the failing one", emitted)
	}
	if again := f.Add(DoneRecord{Index: 1}); again != err {
		t.Errorf("Add after the error = %v, want the first error %v", again, err)
	}
	if _, cerr := f.Close(); cerr != err {
		t.Errorf("Close = %v, want the first error %v", cerr, err)
	}
}
