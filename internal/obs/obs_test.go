package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"iothub/internal/sim"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Inc(InterruptsRaised)
	r.Add(UARTBytes, 10)
	r.Store(CPUTicksActive, 5)
	r.SetMax(MCUBufferHighWater, 7)
	r.Span("cpu", "work", 0, 1)
	r.Note("crash", "detail")
	r.EnableTracing()
	r.Bind(nil)
	r.SetFlightLen(4)
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Tracing() {
		t.Fatal("nil recorder reports Tracing")
	}
	if got := r.Get(InterruptsRaised); got != 0 {
		t.Fatalf("nil Get = %d", got)
	}
	if r.Spans() != nil || r.FlightEvents() != nil {
		t.Fatal("nil recorder returned data")
	}
	var b strings.Builder
	if err := WriteCounters(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "interrupts_raised") {
		t.Fatalf("WriteCounters on nil recorder missing names:\n%s", b.String())
	}
}

// The disabled layer must be free on the hot path: a nil recorder's methods
// are one branch each, never an allocation.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	got := testing.AllocsPerRun(200, func() {
		r.Inc(InterruptsRaised)
		r.Add(UARTBytes, 12)
		r.SetMax(MCUBufferHighWater, 64)
		r.Span("cpu", "work", 0, 1)
		if r.Enabled() {
			r.Note("never", "reached")
		}
	})
	if got != 0 {
		t.Fatalf("nil recorder allocates %.1f per op set, want 0", got)
	}
}

func TestCounterOps(t *testing.T) {
	r := NewRecorder()
	r.Inc(InterruptsRaised)
	r.Inc(InterruptsRaised)
	r.Add(UARTBytes, 100)
	r.Store(CPUTicksActive, 42)
	r.Store(CPUTicksActive, 41) // Store overwrites
	r.SetMax(MCUBufferHighWater, 10)
	r.SetMax(MCUBufferHighWater, 5) // lower value ignored
	for c, want := range map[Counter]uint64{
		InterruptsRaised:   2,
		UARTBytes:          100,
		CPUTicksActive:     41,
		MCUBufferHighWater: 10,
		RadioBursts:        0,
	} {
		if got := r.Get(c); got != want {
			t.Errorf("%s = %d, want %d", c, got, want)
		}
	}
}

func TestCounterNamesDenseAndUnique(t *testing.T) {
	seen := make(map[string]Counter)
	for _, c := range Counters() {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Fatalf("counter %d has no name", int(c))
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("counters %d and %d share name %q", int(prev), int(c), name)
		}
		seen[name] = c
	}
	if Counter(9999).String() != "counter(9999)" {
		t.Fatal("out-of-range counter name")
	}
}

func TestSpansRequireTracing(t *testing.T) {
	r := NewRecorder()
	r.Span("cpu", "work", 0, 10)
	if len(r.Spans()) != 0 {
		t.Fatal("span recorded while tracing disabled")
	}
	r.EnableTracing()
	if !r.Tracing() {
		t.Fatal("Tracing false after EnableTracing")
	}
	r.Span("cpu", "work", 0, 10)
	r.Span("mcu", "exec", 5, 9)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0] != (Span{Track: "cpu", Name: "work", Start: 0, End: 10}) {
		t.Fatalf("span[0] = %+v", spans[0])
	}
}

func TestFlightRingWraps(t *testing.T) {
	r := NewRecorder()
	r.SetFlightLen(3)
	clk := sim.NewScheduler()
	r.Bind(clk)
	for i := 0; i < 5; i++ {
		r.Note("tick", string(rune('a'+i)))
	}
	evs := r.FlightEvents()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(evs))
	}
	got := evs[0].Detail + evs[1].Detail + evs[2].Detail
	if got != "cde" {
		t.Fatalf("oldest-first order = %q, want cde", got)
	}
}

func TestFlightDisabled(t *testing.T) {
	r := NewRecorder()
	r.SetFlightLen(0)
	r.Note("tick", "x")
	if r.FlightEvents() != nil {
		t.Fatal("disabled ring recorded an event")
	}
}

func TestWriteFlightJSONLines(t *testing.T) {
	r := NewRecorder()
	r.Note("crash", "mcu M1")
	r.Note("reboot", "")
	var b strings.Builder
	if err := WriteFlight(&b, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	var ev FlightEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Kind != "crash" || ev.Detail != "mcu M1" {
		t.Fatalf("round-trip = %+v", ev)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.EnableTracing()
	r.Span("cpu", "DataCollection", 1000, 3000)
	r.Span("mcu", "exec", 1500, 2500)
	r.Span("cpu", "Interrupt", 4000, 4500)
	var b strings.Builder
	if err := WriteChromeTrace(&b, r); err != nil {
		t.Fatal(err)
	}
	var doc TraceDocument
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	// 2 metadata events (cpu, mcu tracks) + 3 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta.Ph != "M" || meta.Name != "thread_name" || meta.Args["name"] != "cpu" {
		t.Fatalf("first metadata event = %+v", meta)
	}
	first := doc.TraceEvents[2]
	if first.Ph != "X" || first.Name != "DataCollection" || first.Ts != 1.0 || first.Dur != 2.0 {
		t.Fatalf("first span event = %+v", first)
	}
	// cpu spans share a tid distinct from mcu's.
	if doc.TraceEvents[2].Tid != doc.TraceEvents[4].Tid || doc.TraceEvents[2].Tid == doc.TraceEvents[3].Tid {
		t.Fatal("track→tid mapping wrong")
	}
	// Re-encoding the parsed document reproduces the bytes (round-trip).
	var b2 strings.Builder
	enc := json.NewEncoder(&b2)
	enc.SetIndent("", " ")
	if err := enc.Encode(&doc); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Fatal("trace JSON does not round-trip byte-identically")
	}
}

func TestSpanCapCounted(t *testing.T) {
	r := NewRecorder()
	r.EnableTracing()
	r.spans = make([]Span, maxSpans) // simulate a full buffer
	r.Span("cpu", "over", 0, 1)
	if r.SpansDropped() != 1 {
		t.Fatalf("SpansDropped = %d, want 1", r.SpansDropped())
	}
	doc := BuildTrace(r)
	if doc.SpansDropped != 1 {
		t.Fatal("trace document does not report truncation")
	}
}

func TestWriteCountersFormat(t *testing.T) {
	r := NewRecorder()
	r.Add(UARTBytes, 1234)
	var b strings.Builder
	if err := WriteCounters(&b, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != int(numCounters) {
		t.Fatalf("got %d lines, want %d", len(lines), int(numCounters))
	}
	found := false
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 2 {
			t.Fatalf("malformed line %q", l)
		}
		if f[0] == "uart_bytes" && f[1] == "1234" {
			found = true
		}
	}
	if !found {
		t.Fatalf("uart_bytes 1234 not in dump:\n%s", b.String())
	}
}

func TestGaugesSnapshotAndPrometheus(t *testing.T) {
	g := NewGauges()
	g.StartSweep(64, 4)
	g.WorkerBusy(+1)
	g.WorkerBusy(+1)
	g.WorkerBusy(-1)
	for i := 0; i < 10; i++ {
		g.ScenarioDone(i == 3) // one error
	}
	g.SetFingerprint("deadbeef")
	s := g.Read()
	if s.Total != 64 || s.Done != 10 || s.Errors != 1 || s.WorkersBusy != 1 || s.Workers != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Fingerprint != "deadbeef" {
		t.Fatalf("fingerprint = %q", s.Fingerprint)
	}
	text := g.PrometheusText()
	for _, want := range []string{
		"# TYPE iothub_fleet_scenarios_total gauge",
		"iothub_fleet_scenarios_total 64",
		"iothub_fleet_scenarios_done 10",
		"iothub_fleet_scenarios_errors 1",
		"iothub_fleet_workers 4",
		"iothub_fleet_workers_busy 1",
		`iothub_fleet_aggregate_fingerprint_info{fingerprint="deadbeef"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestGaugesRunObserved: per-run counter values add up across runs, every
// reported counter (zero totals included) is exported as
// iothub_<counter>_total, and a counter no run reported has no series
// (TestNilGaugesNoOps covers nil gauges).
func TestGaugesRunObserved(t *testing.T) {
	series := func(c Counter) string { return "iothub_" + c.String() + "_total" }
	g := NewGauges()
	empty := g.PrometheusText()
	for _, c := range Counters() {
		if strings.Contains(empty, series(c)) {
			t.Fatalf("no run reported yet, but %s is exported:\n%s", series(c), empty)
		}
	}
	runs := []map[Counter]uint64{
		{MeterSamples: 100, MeterDroppedSamples: 2, MeterCPUCycles: 160_000, MeterFlushes: 1, MeterBytes: 512,
			BatteryBrownouts: 1, BatteryBrownoutTimeNs: 40_000, BatteryHarvestedMicroJ: 2_500,
			InterruptsRaised: 4_000, EdgeUploads: 0},
		{MeterSamples: 50, MeterDroppedSamples: 0, MeterCPUCycles: 80_000, MeterFlushes: 1, MeterBytes: 256,
			BatteryBrownouts: 2, BatteryBrownoutTimeNs: 60_000, BatteryHarvestedMicroJ: 1_500,
			InterruptsRaised: 834, EdgeUploads: 0},
	}
	for _, run := range runs {
		for _, c := range Counters() {
			if v, ok := run[c]; ok {
				g.RunObserved(c, v)
			}
		}
	}
	text := g.PrometheusText()
	for _, want := range []string{
		// The meter and battery series keep the names they had before the
		// export was generic.
		"iothub_meter_samples_total 150",
		"iothub_meter_dropped_samples_total 2",
		"iothub_meter_cpu_cycles_total 240000",
		"iothub_meter_flushes_total 2",
		"iothub_meter_bytes_total 768",
		"iothub_battery_brownouts_total 3",
		"iothub_battery_brownout_ns_total 100000",
		"iothub_battery_harvested_uj_total 4000",
		"iothub_interrupts_raised_total 4834",
		"# TYPE iothub_interrupts_raised_total gauge",
		"iothub_edge_uploads_total 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	for _, c := range []Counter{UARTBytes, BatterySoCPermille, CPUWakes} {
		if strings.Contains(text, series(c)) {
			t.Errorf("unreported counter exported as %s:\n%s", series(c), text)
		}
	}
}

// TestGaugesRunObservedConcurrent: pool workers report runs while a scrape
// renders the page, and the totals still add up (run it under -race).
func TestGaugesRunObservedConcurrent(t *testing.T) {
	g := NewGauges()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				g.RunObserved(InterruptsRaised, 3)
			}
		}()
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for range 20 {
			_ = g.PrometheusText()
		}
	}()
	wg.Wait()
	<-scraped
	if text := g.PrometheusText(); !strings.Contains(text, "iothub_interrupts_raised_total 1200\n") {
		t.Errorf("4 workers x 100 runs x 3 interrupts not summed to 1200:\n%s", text)
	}
}

func TestNilGaugesNoOps(t *testing.T) {
	var g *Gauges
	g.StartSweep(1, 1)
	g.ScenarioDone(false)
	g.WorkerBusy(+1)
	g.SetFingerprint("x")
	g.RunObserved(MeterSamples, 1)
	if s := g.Read(); s != (Snapshot{}) {
		t.Fatalf("nil gauges snapshot = %+v", s)
	}
	if text := g.PrometheusText(); strings.Contains(text, "iothub_meter_samples_total") {
		t.Fatalf("nil gauges export a run total:\n%s", text)
	}
}

func TestMetricsServerScrape(t *testing.T) {
	g := NewGauges()
	g.StartSweep(8, 2)
	g.ScenarioDone(false)
	srv, err := StartMetricsServer("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, err := Scrape(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "iothub_fleet_scenarios_done 1") {
		t.Fatalf("scrape body missing gauge:\n%s", body)
	}
	// The per-second gauge moves with the wall clock between renders; the
	// remaining series must match a direct render exactly.
	stable := func(text string) string {
		var keep []string
		for _, l := range strings.Split(text, "\n") {
			if !strings.Contains(l, "per_second") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if stable(body) != stable(g.PrometheusText()) {
		t.Fatal("scrape body differs from direct render")
	}
}

func TestMetricsServerNotFound(t *testing.T) {
	srv, err := StartMetricsServer("127.0.0.1:0", NewGauges())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := scrapeRaw(srv.Addr(), "/nope"); err == nil {
		t.Fatal("want error for unknown path")
	}
}
