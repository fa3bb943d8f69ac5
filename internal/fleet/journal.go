package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"iothub/internal/hub"
)

// The journal is a JSON-lines file: one header line naming the fleet, then
// one "done" line per completed scenario in strict index order (Fold's
// reorder buffer guarantees the order), with periodic "snap" lines carrying
// the aggregator fingerprint for corruption detection. Because metrics are
// float64s serialized by encoding/json (shortest round-trip representation),
// replaying a journal rebuilds bit-identical aggregates.
//
// Fold is the journal's only reader and writer. fleet.Run and the fleetd
// coordinator both fold through it, so either engine resumes a journal the
// other wrote.
type journalLine struct {
	Fleet *journalHeader `json:"fleet,omitempty"`
	Done  *DoneRecord    `json:"done,omitempty"`
	Snap  *journalSnap   `json:"snap,omitempty"`
}

// journalHeader names the sweep a journal belongs to; resume refuses a
// journal whose header disagrees with the spec being run.
type journalHeader struct {
	Seed      int64  `json:"seed"`
	Scenarios int    `json:"scenarios"`
	Spec      string `json:"spec"` // SpecFingerprint of the sweep
}

// newJournalHeader builds the journal identity of a spec's expansion.
func newJournalHeader(spec Spec, scens []hub.Scenario) journalHeader {
	return journalHeader{Seed: spec.Seed, Scenarios: len(scens), Spec: SpecFingerprint(spec, scens)}
}

// DoneRecord is one completed scenario: its index, human label, extracted
// metrics (nil for a failed run) and error text ("" for a successful one).
// It is both the journal's "done" line and the payload fleetd workers submit.
type DoneRecord struct {
	Index   int                `json:"i"`
	Label   string             `json:"label"`
	Metrics map[string]float64 `json:"m,omitempty"`
	Err     string             `json:"err,omitempty"`
}

type journalSnap struct {
	Applied int    `json:"applied"`
	FP      string `json:"fp"`
}

// snapEvery is how often (in applied scenarios) aggregate-fingerprint
// snapshots are written.
const snapEvery = 16

// maxJournalLine bounds one record's size when reading.
const maxJournalLine = 1 << 22

// journalWriter appends lines to an open journal, flushing after every line
// so an interrupt loses at most the line being written. A nil journalWriter
// is a sweep without a journal: every method is a no-op.
type journalWriter struct {
	f *os.File
	w *bufio.Writer
}

// newJournalWriter opens (fresh=true: truncates and writes the header;
// fresh=false: appends to) the journal at path.
func newJournalWriter(path string, header journalHeader, fresh bool) (*journalWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if fresh {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: journal: %w", err)
	}
	jw := &journalWriter{f: f, w: bufio.NewWriter(f)}
	if fresh {
		if err := jw.write(journalLine{Fleet: &header}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return jw, nil
}

func (jw *journalWriter) write(line journalLine) error {
	if jw == nil {
		return nil
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	if _, err := jw.w.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	if err := jw.w.Flush(); err != nil {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	return nil
}

// close flushes and closes the journal file.
func (jw *journalWriter) close() error {
	if jw == nil {
		return nil
	}
	if err := jw.w.Flush(); err != nil {
		jw.f.Close()
		return err
	}
	return jw.f.Close()
}

// replay folds the existing journal at path into f, validating it against
// the sweep as it reads: the header must match the expanded spec, done lines
// must be sequential from zero, and every snapshot fingerprint must agree
// with the aggregates folded up to it. Each done line is applied as it is
// read and none is kept, so a resume holds O(metrics), not O(scenarios).
//
// A partial final record — the signature of a crash mid-write — is skipped
// with a warning rather than an error: the journal flushes line-atomically,
// so an unterminated tail can only be the record that was being written when
// the process died, and the sweep simply re-runs that scenario. Once the
// whole file has validated, the tail is truncated away so the journal is safe
// to append to. Anything malformed before the final record is real
// corruption and still fails, after its valid prefix has been folded.
func (f *Fold) replay(path string) error {
	file, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	defer file.Close()

	var (
		sawHead bool
		valid   int64 // offset just past the last complete record
		tail    int   // bytes of an unterminated final record
	)
	r := bufio.NewReaderSize(file, 1<<16)
	lineNo := 0
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			tail = len(line)
			break
		}
		if err != nil {
			return fmt.Errorf("fleet: journal: %w", err)
		}
		lineNo++
		if len(line) > maxJournalLine {
			return fmt.Errorf("fleet: journal line %d: record of %d bytes", lineNo, len(line))
		}
		var rec journalLine
		if jerr := json.Unmarshal([]byte(strings.TrimSuffix(line, "\n")), &rec); jerr != nil {
			return fmt.Errorf("fleet: journal line %d: %w", lineNo, jerr)
		}
		switch {
		case rec.Fleet != nil:
			if sawHead {
				return fmt.Errorf("fleet: journal line %d: duplicate header", lineNo)
			}
			sawHead = true
			if *rec.Fleet != f.header {
				return fmt.Errorf("fleet: journal is for a different sweep (header %+v, want %+v)", *rec.Fleet, f.header)
			}
		case rec.Done != nil:
			if !sawHead {
				return fmt.Errorf("fleet: journal line %d: done before header", lineNo)
			}
			d := *rec.Done
			if d.Index != f.Next() {
				return fmt.Errorf("fleet: journal line %d: scenario %d out of order (want %d)",
					lineNo, d.Index, f.Next())
			}
			if d.Index >= len(f.tags) {
				return fmt.Errorf("fleet: journal line %d: scenario %d beyond the spec's %d",
					lineNo, d.Index, len(f.tags))
			}
			f.apply(d)
		case rec.Snap != nil:
			if rec.Snap.Applied != f.Next() {
				return fmt.Errorf("fleet: journal line %d: snapshot at %d but %d scenarios done",
					lineNo, rec.Snap.Applied, f.Next())
			}
			if fp := f.res.Agg.Fingerprint(); fp != rec.Snap.FP {
				return fmt.Errorf("fleet: journal line %d: snapshot fingerprint %s != replayed %s (journal corrupt?)",
					lineNo, rec.Snap.FP, fp)
			}
		default:
			return fmt.Errorf("fleet: journal line %d: unrecognized record", lineNo)
		}
		valid += int64(len(line))
	}
	if !sawHead {
		return fmt.Errorf("fleet: journal has no header")
	}
	if tail > 0 {
		f.res.Warnings = append(f.res.Warnings,
			fmt.Sprintf("journal line %d: skipping %d-byte partial record (crash mid-write?); resuming from the last complete record",
				lineNo+1, tail))
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("fleet: journal: drop partial tail: %w", err)
		}
	}
	return nil
}

// SpecFingerprint hashes a sweep's identity — the spec's JSON with Workers
// zeroed, then the expanded scenario sequence (labels, seeds, and tags) — so
// a journal refuses to resume, and a fleetd worker refuses to execute, under
// a different spec. The spec JSON carries what labels abbreviate or omit:
// fault rules, meter and supply parameters, Assign, SkipAppCompute. Workers
// is left out because the pool size never changes what a sweep computes.
func SpecFingerprint(spec Spec, scens []hub.Scenario) string {
	h := uint64(fingerprintBasis)
	mix := func(s string) { h = fnvMix(fnvMix(h, s), "|") }
	spec.Workers = 0
	// Only a NaN or infinite float fails to marshal, and no parsed spec can
	// hold one; the scenario sequence below is hashed either way.
	blob, _ := json.Marshal(spec)
	mix(string(blob))
	for _, s := range scens {
		mix(s.Label())
		mix(strconv.FormatInt(s.Seed, 10))
		mix(s.Tag)
	}
	return fmt.Sprintf("%016x", h)
}
