// Package link models the MCU↔CPU interconnect — the miniUSB UART cable of
// the paper's testbed.
//
// A transfer costs a fixed per-transfer framing/setup overhead plus wire time
// proportional to the payload. This asymmetry is what makes bulk (batched)
// transfers cheaper than per-sample transfers: 1000 × 12 B costs 1000 framing
// overheads, one 12 KB bulk transfer costs one (Fig. 8: 192 ms vs ~100 ms).
// While bits are on the wire the bridge hardware draws WireW, which is the
// "physical data transfer" slice of Figure 4.
package link

import (
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// Params are the link's calibration constants.
type Params struct {
	// FrameOverhead is the fixed per-transfer cost (driver entry, framing,
	// bus arbitration) paid by both endpoints.
	FrameOverhead time.Duration
	// BytesPerSec is the effective wire bandwidth.
	BytesPerSec float64
	// WireW is the power drawn by the physical link while transferring.
	WireW float64
	// CRCBytes is the per-frame checksum trailer the reliable path appends
	// so corruption is detectable. The plain Transmit path never pays it.
	CRCBytes int
	// LossTimeout is how long the sender waits for a missing acknowledgement
	// before declaring a frame lost and retransmitting.
	LossTimeout time.Duration
}

// DefaultParams returns the calibration in DESIGN.md §4: ~0.2 ms per 12-byte
// sample, ~102 ms for a 12 KB bulk transfer.
func DefaultParams() Params {
	return Params{
		FrameOverhead: 90 * time.Microsecond,
		BytesPerSec:   117_000,
		WireW:         1.0,
		CRCBytes:      4,
		LossTimeout:   2 * time.Millisecond,
	}
}

// Link is one interconnect instance with its own energy track.
type Link struct {
	params Params
	sched  *sim.Scheduler
	meter  *energy.Meter
	name   string
	track  *energy.Track
	obs    *obs.Recorder
}

// Ops for the link's scheduled wire power transitions (see OnEvent).
const (
	opWireOn  = 1 // I0 carries the routine the wire power is attributed to
	opWireOff = 2
)

// OnEvent flips the wire's power state at the scheduled instant without a
// per-frame closure.
func (l *Link) OnEvent(a sim.Arg) {
	switch a.Op {
	case opWireOn:
		l.track.Set(l.params.WireW, energy.Routine(a.I0))
	case opWireOff:
		l.track.Set(0, energy.Idle)
	}
}

// Observe attaches an observability recorder: frame/byte/stall/retransmit
// counters and wire-occupancy spans. A nil recorder costs one branch per
// attempt.
func (l *Link) Observe(r *obs.Recorder) { l.obs = r }

// Validate checks the calibration.
func (p Params) Validate() error {
	if p.BytesPerSec <= 0 {
		return fmt.Errorf("link: BytesPerSec = %v, want > 0", p.BytesPerSec)
	}
	if p.FrameOverhead < 0 {
		return fmt.Errorf("link: negative FrameOverhead %v", p.FrameOverhead)
	}
	if p.CRCBytes < 0 {
		return fmt.Errorf("link: negative CRCBytes %d", p.CRCBytes)
	}
	if p.LossTimeout < 0 {
		return fmt.Errorf("link: negative LossTimeout %v", p.LossTimeout)
	}
	if p.WireW < 0 {
		return fmt.Errorf("link: negative WireW %v", p.WireW)
	}
	return nil
}

// New returns a link using the given meter track.
func New(sched *sim.Scheduler, meter *energy.Meter, name string, params Params) (*Link, error) {
	l := &Link{sched: sched, meter: meter, name: name}
	if err := l.Reset(params); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset readies the link for a new run, keeping only its identity. The
// scheduler and meter must have been reset first; the track is re-requested
// so it registers at this call's position in the meter's component order.
func (l *Link) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	*l = Link{params: params, sched: l.sched, meter: l.meter, name: l.name, track: l.meter.Track(l.name)}
	return nil
}

// Params returns the link's calibration constants.
func (l *Link) Params() Params { return l.params }

// WireTime is the duration the payload occupies the physical wire.
func (l *Link) WireTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.params.BytesPerSec * float64(time.Second))
}

// TransferDuration is the end-to-end cost both endpoints are busy for:
// framing overhead plus wire time.
func (l *Link) TransferDuration(n int) time.Duration {
	return l.params.FrameOverhead + l.WireTime(n)
}

// Transmit powers the wire for the payload's wire time starting now and
// returns the total transfer duration the endpoints must budget. Wire energy
// is attributed to routine r (DataTransfer in every scheme).
func (l *Link) Transmit(n int, r energy.Routine) (time.Duration, error) {
	wire := l.WireTime(n)
	l.obs.Inc(obs.UARTFrames)
	if n > 0 {
		l.obs.Add(obs.UARTBytes, uint64(n))
	}
	if wire > 0 {
		now := l.sched.Now()
		l.obs.Span("link", "frame", now, now.Add(wire))
		l.track.Set(l.params.WireW, r)
		if _, err := l.sched.AfterCall(wire, l, sim.Arg{Op: opWireOff}); err != nil {
			return 0, fmt.Errorf("link: schedule wire-off: %w", err)
		}
	}
	return l.TransferDuration(n), nil
}

// Outcome is what happened to one frame attempt on the wire.
type Outcome int

// Frame outcomes reported by a TransmitReliable check callback.
const (
	// TxOK delivers the frame intact.
	TxOK Outcome = iota
	// TxCorrupt delivers the frame but its CRC check fails at the receiver.
	TxCorrupt
	// TxLost drops the frame; the sender only notices via LossTimeout.
	TxLost
)

// RetryPolicy bounds the reliable path's retransmission behavior.
type RetryPolicy struct {
	// MaxRetries is the number of retransmissions allowed after the first
	// attempt (0 = single shot).
	MaxRetries int
	// Backoff is the sender's pause before the first retransmission.
	Backoff time.Duration
	// Factor multiplies the backoff per further retransmission (exponential
	// backoff; values below 1 are clamped to 1).
	Factor float64
}

// TxReport accounts one reliable transfer, retries included.
type TxReport struct {
	// Duration is the total span both endpoints were busy: every attempt's
	// framing and wire time, loss timeouts, and backoff pauses.
	Duration time.Duration
	// Attempts counts frames put on the wire (>= 1).
	Attempts int
	// Corrupted and Lost count the failed attempts by failure mode.
	Corrupted int
	Lost      int
	// Delivered reports whether the payload ultimately arrived.
	Delivered bool
}

// TransmitReliable sends n payload bytes with CRC framing and bounded
// retransmission. check is consulted once per attempt (1-based) and decides
// that frame's fate; every failed attempt costs full wire time and energy,
// lost frames additionally cost LossTimeout, and retransmissions wait out an
// exponential backoff. With a nil check the call degrades to exactly
// Transmit: one attempt, no CRC trailer, no timeout — the fault-free path is
// byte-identical to the unreliable one.
func (l *Link) TransmitReliable(n int, r energy.Routine, pol RetryPolicy, check func(attempt int) Outcome) (TxReport, error) {
	if check == nil {
		d, err := l.Transmit(n, r)
		return TxReport{Duration: d, Attempts: 1, Delivered: true}, err
	}
	frame := n + l.params.CRCBytes
	wire := l.WireTime(frame)
	factor := pol.Factor
	if factor < 1 {
		factor = 1
	}
	backoff := pol.Backoff
	rep := TxReport{}
	elapsed := time.Duration(0)
	for {
		rep.Attempts++
		l.obs.Inc(obs.UARTFrames)
		if frame > 0 {
			l.obs.Add(obs.UARTBytes, uint64(frame))
		}
		if rep.Attempts > 1 {
			l.obs.Inc(obs.UARTRetransmits)
		}
		if wire > 0 {
			on := elapsed
			start := l.sched.Now().Add(on)
			l.obs.Span("link", "frame", start, start.Add(wire))
			if _, err := l.sched.AfterCall(on, l, sim.Arg{Op: opWireOn, I0: int64(r)}); err != nil {
				return rep, fmt.Errorf("link: schedule wire-on: %w", err)
			}
			if _, err := l.sched.AfterCall(on+wire, l, sim.Arg{Op: opWireOff}); err != nil {
				return rep, fmt.Errorf("link: schedule wire-off: %w", err)
			}
		}
		elapsed += l.params.FrameOverhead + wire
		switch check(rep.Attempts) {
		case TxOK:
			rep.Delivered = true
			rep.Duration = elapsed
			return rep, nil
		case TxCorrupt:
			rep.Corrupted++
		case TxLost:
			rep.Lost++
			l.obs.Inc(obs.UARTStalls)
			elapsed += l.params.LossTimeout
		}
		if rep.Attempts-1 >= pol.MaxRetries {
			rep.Duration = elapsed
			return rep, nil
		}
		elapsed += backoff
		backoff = time.Duration(float64(backoff) * factor)
	}
}
