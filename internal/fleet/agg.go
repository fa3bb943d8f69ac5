package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"iothub/internal/energy"
	"iothub/internal/hub"
)

// MetricNames are the per-run metrics extracted from every scenario, in
// report order: the four per-window energy stages and their total (joules per
// window), the QoS-facing pair the optimizer constrains on — mean output
// latency (seconds past window close) and the run's QoS violation count — and
// the battery-ledger trio (survival seconds, brownout count, final SoC
// fraction), present only for power-armed runs so mains sweeps aggregate
// exactly as before. Each aggregate key is "<tag>/<metric>" where tag is the
// scenario's Tag (or its scheme name when untagged).
var MetricNames = []string{"collection", "interrupt", "transfer", "compute", "total", "latency", "qos",
	"survival", "brownouts", "soc"}

// Metrics extracts a run's per-window energy numbers (joules per window) and
// its latency/QoS observations. Power-armed runs additionally report their
// battery ledger; Apply skips metric names absent from the map, so the
// conditional keys never perturb a mains-powered sweep's aggregates.
func Metrics(res *hub.RunResult, windows int) map[string]float64 {
	w := float64(windows)
	if w <= 0 {
		w = 1
	}
	m := map[string]float64{
		"collection": res.Energy[energy.DataCollection] / w,
		"interrupt":  res.Energy[energy.Interrupt] / w,
		"transfer":   res.Energy[energy.DataTransfer] / w,
		"compute":    res.Energy[energy.AppCompute] / w,
		"total":      res.Energy.Attributed() / w,
		"latency":    res.OutputLatency().Mean.Seconds(),
		"qos":        float64(res.QoSViolations),
	}
	if res.BatteryCapacityJ > 0 {
		m["survival"] = res.BatterySurvival.Seconds()
		m["brownouts"] = float64(res.Brownouts)
		m["soc"] = res.BatterySoCJ / res.BatteryCapacityJ
	}
	return m
}

// Tag is the aggregation bucket a scenario's metrics land in.
func Tag(s hub.Scenario) string {
	if s.Tag != "" {
		return s.Tag
	}
	return s.Scheme.String()
}

// Welford is an online mean/variance accumulator (Welford's algorithm):
// numerically stable, O(1) per observation, and a pure function of the
// observation sequence.
type Welford struct {
	N    int64
	Mean float64
	m2   float64
	Min  float64
	Max  float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.N++
	if w.N == 1 {
		w.Min, w.Max = x, x
	} else {
		if x < w.Min {
			w.Min = x
		}
		if x > w.Max {
			w.Max = x
		}
	}
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.m2 += d * (x - w.Mean)
}

// Std is the sample standard deviation (0 for fewer than two observations).
func (w *Welford) Std() float64 {
	if w.N < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.N-1))
}

// p2 is the P² single-quantile estimator (Jain & Chlamtac 1985): five
// markers track the quantile without storing observations. Estimates are a
// deterministic function of the observation sequence, which the fleet's
// in-index-order aggregation relies on.
type p2 struct {
	p      float64
	filled int        // observations seen, up to 5
	n      [5]float64 // marker positions (1-based)
	np     [5]float64 // desired positions
	dn     [5]float64 // desired-position increments
	q      [5]float64 // marker heights
}

func newP2(p float64) *p2 {
	s := &p2{p: p}
	s.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return s
}

func (s *p2) add(x float64) {
	if s.filled < 5 {
		s.q[s.filled] = x
		s.filled++
		if s.filled == 5 {
			sort.Float64s(s.q[:])
			for i := 0; i < 5; i++ {
				s.n[i] = float64(i + 1)
				s.np[i] = 1 + 4*s.dn[i]
			}
		}
		return
	}
	// Find the cell x falls in and clamp the extreme markers.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0], k = x, 0
	case x < s.q[1]:
		k = 0
	case x < s.q[2]:
		k = 1
	case x < s.q[3]:
		k = 2
	case x <= s.q[4]:
		k = 3
	default:
		s.q[4], k = x, 3
	}
	for i := k + 1; i < 5; i++ {
		s.n[i]++
	}
	for i := 0; i < 5; i++ {
		s.np[i] += s.dn[i]
	}
	// Nudge the three interior markers toward their desired positions with
	// piecewise-parabolic (fallback linear) interpolation.
	for i := 1; i <= 3; i++ {
		d := s.np[i] - s.n[i]
		if (d >= 1 && s.n[i+1]-s.n[i] > 1) || (d <= -1 && s.n[i-1]-s.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qp := s.parabolic(i, sign)
			if s.q[i-1] < qp && qp < s.q[i+1] {
				s.q[i] = qp
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.n[i] += sign
		}
	}
}

func (s *p2) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.n[i+1]-s.n[i-1])*
		((s.n[i]-s.n[i-1]+d)*(s.q[i+1]-s.q[i])/(s.n[i+1]-s.n[i])+
			(s.n[i+1]-s.n[i]-d)*(s.q[i]-s.q[i-1])/(s.n[i]-s.n[i-1]))
}

func (s *p2) linear(i int, d float64) float64 {
	return s.q[i] + d*(s.q[int(float64(i)+d)]-s.q[i])/(s.n[int(float64(i)+d)]-s.n[i])
}

// value is the current quantile estimate. Under five observations it falls
// back to the exact order statistic (nearest-rank over the sorted prefix).
func (s *p2) value() float64 {
	if s.filled == 0 {
		return 0
	}
	if s.filled < 5 {
		tmp := make([]float64, s.filled)
		copy(tmp, s.q[:s.filled])
		sort.Float64s(tmp)
		idx := int(math.Ceil(s.p*float64(s.filled))) - 1
		if idx < 0 {
			idx = 0
		}
		return tmp[idx]
	}
	return s.q[2]
}

// Quantiles the fleet tracks per metric.
var quantilePs = []float64{0.50, 0.95, 0.99}

// Metric is the streaming aggregate of one "<tag>/<metric>" series: Welford
// moments plus P50/P95/P99 P² sketches. Fixed size regardless of how many
// scenarios feed it.
type Metric struct {
	w       Welford
	sketch  [3]*p2
	samples int
}

func newMetric() *Metric {
	m := &Metric{}
	for i, p := range quantilePs {
		m.sketch[i] = newP2(p)
	}
	return m
}

// Add folds one per-scenario observation in.
func (m *Metric) Add(x float64) {
	m.w.Add(x)
	for _, s := range m.sketch {
		s.add(x)
	}
	m.samples++
}

// Count, Mean, Std, Min, Max expose the Welford moments.
func (m *Metric) Count() int64 { return m.w.N }
func (m *Metric) Mean() float64 {
	return m.w.Mean
}
func (m *Metric) Std() float64 { return m.w.Std() }
func (m *Metric) Min() float64 { return m.w.Min }
func (m *Metric) Max() float64 { return m.w.Max }

// Quantile reports the P² estimate for one of the tracked quantiles
// (0.50, 0.95, 0.99).
func (m *Metric) Quantile(p float64) float64 {
	for i, kp := range quantilePs {
		if kp == p {
			return m.sketch[i].value()
		}
	}
	return math.NaN()
}

// Aggregator folds per-scenario metrics into per-(tag, metric) streaming
// aggregates. It is not goroutine-safe: the fleet collector owns it and
// applies observations strictly in scenario-index order.
type Aggregator struct {
	metrics map[string]*Metric
	// Runs and Errors count scenarios folded in and scenarios that failed.
	Runs   int
	Errors int
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{metrics: map[string]*Metric{}}
}

// Apply folds one scenario's extracted metrics into the tag's aggregates.
func (a *Aggregator) Apply(tag string, m map[string]float64) {
	a.Runs++
	for _, name := range MetricNames {
		v, ok := m[name]
		if !ok {
			continue
		}
		key := tag + "/" + name
		mt := a.metrics[key]
		if mt == nil {
			mt = newMetric()
			a.metrics[key] = mt
		}
		mt.Add(v)
	}
}

// ApplyError accounts a failed scenario (it contributes to no metric).
func (a *Aggregator) ApplyError() {
	a.Runs++
	a.Errors++
}

// Keys lists the aggregate keys in sorted order.
func (a *Aggregator) Keys() []string {
	keys := make([]string, 0, len(a.metrics))
	for k := range a.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Metric returns the aggregate for a key, or nil.
func (a *Aggregator) Metric(key string) *Metric { return a.metrics[key] }

// JSON renders the aggregates as deterministic JSON: keys sorted, floats in
// Go's shortest round-trip form, no map iteration anywhere. Two aggregators
// that saw the same observations in the same order render byte-identical
// JSON — the artifact the service-smoke and chaos harnesses diff against a
// single-process run.
func (a *Aggregator) JSON() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"runs":%d,"errors":%d,"fingerprint":%q,"metrics":{`, a.Runs, a.Errors, a.Fingerprint())
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, k := range a.Keys() {
		if i > 0 {
			b.WriteByte(',')
		}
		m := a.metrics[k]
		key, _ := json.Marshal(k)
		fmt.Fprintf(&b, `%s:{"n":%d,"mean":%s,"std":%s,"min":%s,"max":%s,"p50":%s,"p95":%s,"p99":%s}`,
			key, m.Count(), num(m.Mean()), num(m.Std()), num(m.Min()), num(m.Max()),
			num(m.Quantile(0.50)), num(m.Quantile(0.95)), num(m.Quantile(0.99)))
	}
	b.WriteString("}}\n")
	return b.Bytes()
}

// Fingerprint hashes the aggregator's complete state (bit-exact float
// representations included) into a short hex token. Two aggregators that saw
// the same observations in the same order fingerprint identically — the
// fleet's workers=1 vs workers=N and resume-vs-uninterrupted checks compare
// these.
func (a *Aggregator) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs=%d errors=%d", a.Runs, a.Errors)
	for _, k := range a.Keys() {
		m := a.metrics[k]
		fmt.Fprintf(&b, "|%s:%d:%x:%x:%x:%x", k, m.w.N,
			math.Float64bits(m.w.Mean), math.Float64bits(m.w.m2),
			math.Float64bits(m.w.Min), math.Float64bits(m.w.Max))
		for _, s := range m.sketch {
			fmt.Fprintf(&b, ":%d", s.filled)
			for i := 0; i < 5; i++ {
				fmt.Fprintf(&b, ",%x,%x", math.Float64bits(s.n[i]), math.Float64bits(s.q[i]))
			}
		}
	}
	return fmt.Sprintf("%016x", fnvMix(fingerprintBasis, b.String()))
}

// fingerprintBasis seeds every sweep fingerprint. It is not the FNV-1a 64
// offset basis, 14695981039346656037, but that number with its last digit
// dropped. Journal headers and snapshots, fleetd submissions and the
// benchmark's reference aggregates all pin hashes grown from it, so it
// stays.
const fingerprintBasis = 1469598103934665603

// fnvMix folds s into h one byte at a time with the FNV-1a 64 step.
func fnvMix[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
