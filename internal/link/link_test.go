package link

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
)

func newLink(t *testing.T) (*Link, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	l, err := New(s, m, "link", DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l, s, m
}

func TestNewRejectsBadParams(t *testing.T) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	if _, err := New(s, m, "l", Params{BytesPerSec: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(s, m, "l", Params{BytesPerSec: 1, FrameOverhead: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestTransferDurationPerSampleVsBulk(t *testing.T) {
	l, _, _ := newLink(t)
	perSample := l.TransferDuration(12)
	bulk := l.TransferDuration(12_000)
	thousand := 1000 * perSample
	if bulk >= thousand {
		t.Errorf("bulk %v not cheaper than 1000 per-sample transfers %v", bulk, thousand)
	}
	// Calibration targets from Fig. 8: ~192 ms per-sample total, ~100 ms bulk.
	if thousand < 150*time.Millisecond || thousand > 250*time.Millisecond {
		t.Errorf("1000 per-sample transfers = %v, want ~190ms", thousand)
	}
	if bulk < 80*time.Millisecond || bulk > 130*time.Millisecond {
		t.Errorf("bulk 12KB transfer = %v, want ~103ms", bulk)
	}
}

func TestWireTimeZeroForEmptyPayload(t *testing.T) {
	l, _, _ := newLink(t)
	if got := l.WireTime(0); got != 0 {
		t.Errorf("WireTime(0) = %v, want 0", got)
	}
	if got := l.TransferDuration(0); got != l.Params().FrameOverhead {
		t.Errorf("TransferDuration(0) = %v, want framing only", got)
	}
}

func TestTransmitChargesWireEnergy(t *testing.T) {
	l, s, m := newLink(t)
	d, err := l.Transmit(11_700, energy.DataTransfer) // exactly 100 ms of wire
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := l.Params().WireW * 0.1
	got := m.Total()[energy.DataTransfer]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("wire energy = %v J, want %v", got, want)
	}
	if d != l.TransferDuration(11_700) {
		t.Errorf("Transmit duration = %v, want %v", d, l.TransferDuration(11_700))
	}
}

func TestTransmitZeroBytesNoEnergy(t *testing.T) {
	l, s, m := newLink(t)
	if _, err := l.Transmit(0, energy.DataTransfer); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := m.Total().Total(); got != 0 {
		t.Errorf("energy = %v, want 0", got)
	}
}

func TestTransmitReliableNilCheckMatchesTransmit(t *testing.T) {
	// The fault-free reliable path must be byte-identical to plain Transmit:
	// same duration, same energy, no CRC trailer.
	la, sa, ma := newLink(t)
	lb, sb, mb := newLink(t)
	da, err := la.Transmit(1200, energy.DataTransfer)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	rep, err := lb.TransmitReliable(1200, energy.DataTransfer, RetryPolicy{MaxRetries: 3}, nil)
	if err != nil {
		t.Fatalf("TransmitReliable: %v", err)
	}
	if err := sa.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Duration != da || rep.Attempts != 1 || !rep.Delivered {
		t.Errorf("nil-check report = %+v, want duration %v, 1 attempt, delivered", rep, da)
	}
	if ea, eb := ma.Total().Total(), mb.Total().Total(); ea != eb {
		t.Errorf("energy diverged: transmit %v, reliable %v", ea, eb)
	}
}

func TestTransmitReliableRetriesCostWireEnergy(t *testing.T) {
	l, s, m := newLink(t)
	pol := RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, Factor: 2}
	// Corrupt, lost, then delivered on the third frame.
	outcomes := []Outcome{TxCorrupt, TxLost, TxOK}
	rep, err := l.TransmitReliable(1166, energy.DataTransfer, pol, func(attempt int) Outcome {
		return outcomes[attempt-1]
	})
	if err != nil {
		t.Fatalf("TransmitReliable: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Delivered || rep.Attempts != 3 || rep.Corrupted != 1 || rep.Lost != 1 {
		t.Errorf("report = %+v, want delivered on attempt 3 with 1 corrupt + 1 lost", rep)
	}
	p := l.Params()
	wire := l.WireTime(1166 + p.CRCBytes)
	// attempt1 (corrupt) + backoff 1ms + attempt2 (lost, + timeout) +
	// backoff 2ms + attempt3 (ok).
	want := 3*(p.FrameOverhead+wire) + p.LossTimeout + 1*time.Millisecond + 2*time.Millisecond
	if rep.Duration != want {
		t.Errorf("duration = %v, want %v", rep.Duration, want)
	}
	// Every attempt, failed or not, powered the wire for the full frame.
	wantJ := p.WireW * (3 * wire).Seconds()
	got := m.Total()[energy.DataTransfer]
	if math.Abs(got-wantJ) > 1e-9 {
		t.Errorf("wire energy = %v J, want %v (3 full frames)", got, wantJ)
	}
}

func TestTransmitReliableGivesUpAfterMaxRetries(t *testing.T) {
	l, s, _ := newLink(t)
	attempts := 0
	rep, err := l.TransmitReliable(100, energy.DataTransfer, RetryPolicy{MaxRetries: 2},
		func(int) Outcome { attempts++; return TxLost })
	if err != nil {
		t.Fatalf("TransmitReliable: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Delivered {
		t.Error("all-lost transfer reported delivered")
	}
	if attempts != 3 || rep.Attempts != 3 || rep.Lost != 3 {
		t.Errorf("report = %+v with %d checks, want 3 attempts all lost", rep, attempts)
	}
}

// Property: transfer duration is monotone in payload size and always at
// least the framing overhead.
func TestPropertyTransferMonotone(t *testing.T) {
	l, _, _ := newLink(t)
	f := func(a, b uint16) bool {
		da, db := l.TransferDuration(int(a)), l.TransferDuration(int(b))
		if a <= b && da > db {
			return false
		}
		return da >= l.Params().FrameOverhead
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// linkReading is every exported reading of a link after a run.
type linkReading struct {
	Plain    time.Duration
	Reliable TxReport
	Energy   energy.Breakdown
}

// probeLink runs one fixed workload on l — a plain frame, then a reliable
// one that is corrupted, lost, and delivered — and returns the readings.
func probeLink(t *testing.T, l *Link, s *sim.Scheduler) linkReading {
	t.Helper()
	plain, err := l.Transmit(1200, energy.DataTransfer)
	if err != nil {
		t.Fatal(err)
	}
	fates := []Outcome{TxCorrupt, TxLost, TxOK}
	rep, err := l.TransmitReliable(600, energy.DataTransfer,
		RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond, Factor: 2},
		func(attempt int) Outcome { return fates[attempt-1] })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return linkReading{plain, rep, l.track.Breakdown()}
}

// TestResetMidRunMatchesFresh resets a link caught mid-run — wire powered,
// retransmissions still queued — and checks that it then reads exactly like
// a freshly built one.
func TestResetMidRunMatchesFresh(t *testing.T) {
	l, s, m := newLink(t)
	if _, err := l.TransmitReliable(4000, energy.DataTransfer, RetryPolicy{MaxRetries: 3},
		func(int) Outcome { return TxLost }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(sim.Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if l.track.Watts() == 0 || s.Pending() == 0 {
		t.Fatalf("setup: wire at %v W with %d events pending; want a frame on the wire", l.track.Watts(), s.Pending())
	}
	s.Reset()
	m.Reset()
	if err := l.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	got := probeLink(t, l, s)
	fresh, fs, _ := newLink(t)
	if want := probeLink(t, fresh, fs); !reflect.DeepEqual(got, want) {
		t.Errorf("reset link reads %+v\nfresh link reads %+v", got, want)
	}
}
