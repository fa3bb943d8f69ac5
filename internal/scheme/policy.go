package scheme

// Policy is one app's execution behavior: one verdict per routine of the
// paper's Table II. Policies are plain rows of the policy table (one per
// Mode): the hub's event conductor reads the verdicts and executes them
// against the hardware models, so a policy never touches the scheduler and
// cannot perturb timing by itself.
//
//	Routine                   Field     decides
//	------------------------  --------  -------------------------------------
//	Data Collection/Interrupt Sample    interrupt now, buffer, or hold
//	Data Transfer             Transfer  per-sample vs coalesced vs result-only
//	App-specific Computation  Place     CPU vs MCU offload vs edge upload
//	(window completion)       Gate      which progress gate closes a window
type Policy struct {
	// Sample decides what the MCU does with one freshly formatted sample
	// for this app.
	Sample SampleAction
	// Transfer decides how the app's window data crosses the link.
	Transfer TransferPlan
	// Place decides which processor runs the app-specific computation.
	Place Placement
	// Gate decides which per-window progress counter must fill before the
	// window's downstream step fires.
	Gate CloseGate
}

// SampleAction is the Sample verdict.
type SampleAction int

const (
	// Interrupt raises a per-sample MCU→CPU interrupt and transfers the
	// sample immediately (Baseline/BEAM collection).
	Interrupt SampleAction = iota + 1
	// Buffer appends the sample to the app's MCU-side batch; it crosses in a
	// later bulk transfer and raises no interrupt of its own.
	Buffer
	// Hold keeps the sample at the MCU for in-place computation; nothing
	// crosses the link until the result notification.
	Hold
)

// TransferPlan is the Transfer verdict.
type TransferPlan int

const (
	// PerSampleTransfer moves every sample individually as it is collected;
	// by window close the data already sits at the CPU.
	PerSampleTransfer TransferPlan = iota + 1
	// CoalescedTransfer bulk-flushes the buffered window in one (or, under
	// RAM pressure, few) transfers.
	CoalescedTransfer
	// ResultOnlyTransfer moves only the small result notification; the raw
	// samples never leave the MCU.
	ResultOnlyTransfer
)

// Placement is the Place verdict.
type Placement int

const (
	// OnCPU runs the app-specific computation on the hub CPU.
	OnCPU Placement = iota + 1
	// OnMCU offloads the app-specific computation to the MCU.
	OnMCU
	// OnEdge uploads the window's data and runs the computation on the
	// edge tier's container executor (internal/edge).
	OnEdge
)

// CloseGate is the Gate verdict: the progress counter whose exhaustion
// completes a window.
type CloseGate int

const (
	// AwaitDelivery closes the window once every still-expected sample has
	// landed at the CPU (per-sample transfers must finish first).
	AwaitDelivery CloseGate = iota + 1
	// AwaitCollection closes the window once every still-expected sample has
	// been formatted at the MCU (the transfer, if any, follows the close).
	AwaitCollection
)

// policies is the policy table, indexed by Mode.
var policies = [...]Policy{
	// Baseline/BEAM: every sample interrupts the CPU.
	PerSample: {Interrupt, PerSampleTransfer, OnCPU, AwaitDelivery},
	// Batching: the MCU buffers a window, one bulk flush.
	Batched: {Buffer, CoalescedTransfer, OnCPU, AwaitCollection},
	// COM: the MCU computes, only the result crosses.
	Offloaded: {Hold, ResultOnlyTransfer, OnMCU, AwaitCollection},
	// The edge tier: the MCU buffers a window exactly like Batched, but the
	// bulk flush continues past the CPU onto the uplink radio, and the
	// computation runs in the app's edge container.
	Uploaded: {Buffer, CoalescedTransfer, OnEdge, AwaitCollection},
}

// Policy returns the mode's row of the policy table. It is on the
// conductor's per-sample path and stays allocation-free. It panics on a mode
// outside the table: modes reach the conductor only through Def.Modes and
// Degrade, so an out-of-range value is a programming error.
func (m Mode) Policy() Policy {
	if !m.valid() {
		panic("scheme: no policy for " + m.String())
	}
	return policies[m]
}

// valid reports whether the mode has a row in the policy table.
func (m Mode) valid() bool { return m >= PerSample && int(m) < len(policies) }

// Degrade is the resilience ladder (§ fault handling): one step down in
// remote-dependence — Uploaded and Offloaded both fall back to Batched (a
// local placement: a degraded app must not depend on a dead edge link or a
// crashing MCU's compute), and Batched to PerSample. The second result is
// false at the ladder's floor (PerSample has nothing below it).
func Degrade(from Mode) (Mode, bool) {
	switch from {
	case Uploaded:
		return Batched, true
	case Offloaded:
		return Batched, true
	case Batched:
		return PerSample, true
	default:
		return from, false
	}
}
