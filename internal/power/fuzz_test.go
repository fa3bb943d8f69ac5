package power

import (
	"testing"
	"time"
)

// FuzzParseTrace: arbitrary text must never panic the parser, and any trace
// it accepts must compile into a well-formed step list (strictly ordered,
// coalesced, non-negative levels) for several horizons — the properties the
// hub's ledger scheduling depends on.
func FuzzParseTrace(f *testing.F) {
	f.Add("solar:peak=1.6,period=2s")
	f.Add("const:w=0.12; solar:peak=0.9,period=4s,phase=1s")
	f.Add("rf:w=0.6,period=400ms,burst=120ms")
	f.Add("const:w=0.5,at=1s; rf:w=1,period=2s,burst=500ms; solar:peak=2,period=3s,slots=16")
	f.Add("; ;;")
	f.Add("const:w=1e308; const:w=1e308")
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := ParseTrace(spec)
		if err != nil {
			return
		}
		for _, horizon := range []time.Duration{0, time.Millisecond, 3 * time.Second} {
			steps := tr.AppendSteps(nil, horizon)
			if len(steps) == 0 {
				t.Fatalf("accepted trace %q compiled to no steps", spec)
			}
			if steps[0].At != 0 {
				t.Fatalf("first step of %q at %v, want 0", spec, steps[0].At)
			}
			for i, s := range steps {
				if s.Watts < 0 {
					t.Fatalf("negative level %v in %q", s, spec)
				}
				if i > 0 && s.At <= steps[i-1].At {
					t.Fatalf("unordered steps %v in %q", steps, spec)
				}
				if i > 0 && s.Watts == steps[i-1].Watts {
					t.Fatalf("uncoalesced steps %v in %q", steps, spec)
				}
			}
		}
	})
}
