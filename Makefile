# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet fmt fmt-check check perfbench-check lint-scheme fuzz fleet-smoke service-smoke obs-smoke observer-smoke opt-smoke harvest-smoke bench bench-smoke experiments ablations examples clean

all: build vet test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint-scheme guards the policy-engine architecture: every Scheme/Mode switch
# (and every case arm over the scheme/mode/placement constants) must live in
# internal/scheme — or internal/edge for the edge tier's own machinery — the
# hub runner is a scheme-agnostic conductor. Production code only; tests may
# enumerate modes to assert planner output.
lint-scheme:
	@out=$$( \
	  { grep -rnE 'switch[ (][^{]*([Ss]cheme|[Mm]ode)' --include='*.go' --exclude='*_test.go' cmd internal examples; \
	    grep -rnE '^[[:space:]]*case[[:space:]][^:]*(\bBaseline\b|\bBatching\b|\bBCOM\b|\bBEAM\b|\bHybrid\b|\bECOM\b|\bPerSample\b|\bBatched\b|\bOffloaded\b|\bUploaded\b|\bOnCPU\b|\bOnMCU\b|\bOnEdge\b|[^a-zA-Z.]COM\b)' \
	      --include='*.go' --exclude='*_test.go' cmd internal examples; } \
	  | grep -v '^internal/scheme/' | grep -v '^internal/edge/' || true); \
	if [ -n "$$out" ]; then \
	  echo "lint-scheme: Scheme/Mode control flow outside internal/scheme:"; \
	  echo "$$out"; exit 1; \
	fi; echo "lint-scheme: ok"

# check is the pre-merge gate: the gofmt gate, static analysis, the
# scheme-placement lint, the race detector, the optimizer determinism smoke,
# the observer-effect smoke, the battery/harvest smoke, short fuzz passes over
# the text decoders that consume user-shaped bytes (CoAP wire format, harvest
# trace grammar, the HTTP request and response codec of the A4 and A6
# workloads, JSON, JPEG, scheme names), a fuzz pass checking that chained
# reserved-seq series dispatch exactly like series queued up front, one
# checking the scheduler's run queue against a brute-force reference, one
# feeding parsed fault schedules and probe scripts to the fault engine and a
# brute-force reference, one feeding scenario JSON to Scenario.Config, and one
# feeding sweep-spec JSON to ParseSpec and Expand. It ends with the benchmark's
# vet and self-test, as CI runs them, so a change to an internal API the
# benchmark uses fails here and not only in CI.
check: fmt-check vet lint-scheme race opt-smoke observer-smoke harvest-smoke fuzz perfbench-check

# perfbench is its own module, so `go vet ./...` and `go test ./...` skip it.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s ./internal/coapmsg
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 10s ./internal/power
	$(GO) test -run '^$$' -fuzz FuzzReservedOrder -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzQueueOrder -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzFaultEngine -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzParseRequest -fuzztime 5s ./internal/httplite
	$(GO) test -run '^$$' -fuzz FuzzParseResponse -fuzztime 5s ./internal/httplite
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/jsonlite
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 5s ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz FuzzParseScheme -fuzztime 5s ./internal/scheme
	$(GO) test -run '^$$' -fuzz FuzzModeUnmarshalText -fuzztime 5s ./internal/scheme
	$(GO) test -run '^$$' -fuzz FuzzScenarioConfig -fuzztime 5s ./internal/hub
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 5s ./internal/fleet

# Tiny end-to-end fleet sweep (8 scenarios) under the race detector: exercises
# the worker pool, reorder-buffer aggregation, the Prometheus endpoint (the
# sweep self-scrapes its own /metrics at the end), and the CLI in one shot.
# The scrape must count all 8 scenarios done, export a nonzero run total
# from the runs' counters, and carry no iothub_fleetd_* series: those belong
# to the coordinator's page alone.
fleet-smoke:
	@out=$$($(GO) run -race ./cmd/iotfleet -spec internal/fleet/testdata/smoke.json \
		-workers 4 -progress -metrics-addr 127.0.0.1:0 2>&1); status=$$?; \
	printf '%s\n' "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	printf '%s\n' "$$out" | grep -qx 'iothub_fleet_scenarios_done 8' || \
	  { echo "fleet-smoke: scrape lacks iothub_fleet_scenarios_done 8"; exit 1; }; \
	printf '%s\n' "$$out" | grep -Eq '^iothub_interrupts_raised_total [1-9]' || \
	  { echo "fleet-smoke: scrape lacks a nonzero iothub_interrupts_raised_total"; exit 1; }; \
	if printf '%s\n' "$$out" | grep -q '^iothub_fleetd_'; then \
	  echo "fleet-smoke: in-process scrape exports iothub_fleetd_* series"; exit 1; fi; \
	echo "fleet-smoke: ok"

# Service-mode fault-tolerance smoke: coordinator + two worker processes
# under the race detector, one worker kill -9'd mid-sweep; the merged
# aggregate JSON must equal the in-process workers=1 run byte for byte.
service-smoke:
	sh scripts/service_smoke.sh

# End-to-end observability smoke: one clean and one chaotic instrumented run
# dumping trace + counters (+ flight ring under chaos), then the exporter
# test suite — golden trace bytes, analytic Table II counter values, and the
# instrumented-run-is-byte-identical guarantee.
OBS_TMP ?= /tmp
obs-smoke:
	$(GO) run ./cmd/iotsim -apps A2 -scheme baseline -windows 2 -outputs=false \
		-trace $(OBS_TMP)/obs-baseline-trace.json -counters
	$(GO) run ./cmd/iotsim -apps A2,A7 -scheme beam -windows 2 -outputs=false \
		-chaos "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms" \
		-trace $(OBS_TMP)/obs-chaos-trace.json -counters -flight
	$(GO) test -run 'TestObs|TestChromeTrace' ./internal/hub ./internal/obs

# Observer-effect smoke: the abl-observer ablation enforces its own gates —
# the External/zero-cost asymptote is byte-identical to the unobserved run,
# energy inflation grows strictly with the sampling rate within every scheme,
# and per-sample schemes inflate strictly more than batched ones — so simply
# running it (plus the asymptote/chaos/analytic test suite) is the gate.
observer-smoke:
	$(GO) run ./cmd/experiments -id abl-observer > /dev/null
	$(GO) test -run 'TestMeter' ./internal/hub ./internal/obs
	@echo "observer-smoke: ok"

# Optimizer determinism smoke: run the committed example search twice, demand
# the two emitted plans are byte-identical AND equal to the committed plan,
# then verify the plan's embedded replay spec reproduces its aggregates byte
# for byte (and still beats every paper scheme) through `optimize
# -check-replay`.
OPT_TMP ?= /tmp
opt-smoke:
	$(GO) run ./cmd/iotfleet optimize -spec internal/optimizer/testdata/example.json \
		-out $(OPT_TMP)/opt-smoke-1.json > /dev/null
	$(GO) run ./cmd/iotfleet optimize -spec internal/optimizer/testdata/example.json \
		-out $(OPT_TMP)/opt-smoke-2.json > /dev/null
	cmp $(OPT_TMP)/opt-smoke-1.json $(OPT_TMP)/opt-smoke-2.json
	cmp $(OPT_TMP)/opt-smoke-1.json internal/optimizer/testdata/example.plan.json
	$(GO) run ./cmd/iotfleet optimize -check-replay internal/optimizer/testdata/example.plan.json
	@echo "opt-smoke: ok"

# Battery/harvest smoke: the abl-harvest ablation enforces its own gates —
# the shared supply browns out at least one scheme and spares at least one,
# survivors' survival equals the horizon, reruns are byte-identical, and the
# fleet reproduces identical per-scenario records for any worker count — so
# running it (plus the asymptote/brownout suite) is the gate.
harvest-smoke:
	$(GO) run ./cmd/experiments -id abl-harvest > /dev/null
	$(GO) test -run 'TestBattery|TestArenaReuseBatteryArmed|TestBrownoutUnderChaos' ./internal/hub ./internal/power
	@echo "harvest-smoke: ok"

fmt:
	gofmt -l -w .

# fmt-check fails when gofmt would rewrite any tracked Go file. It lists the
# files with git, so the untracked benchmark build tree (.bench_build/) is
# never scanned.
fmt-check:
	@files=$$(git ls-files '*.go') || exit 1; \
	out=$$(gofmt -l $$files); \
	if [ -n "$$out" ]; then \
	  echo "fmt-check: not gofmt-clean (run make fmt):"; \
	  echo "$$out"; exit 1; \
	fi; echo "fmt-check: ok"

# Full benchmark harness: one testing.B per paper table/figure + ablations
# + per-package micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rotted benchmark code in CI
# without paying for real measurement. The sweep's allocation gate is a test
# (TestFleetSweepAllocBudget), so `make test` and `make race` run it; the
# repository benchmark is perfbench/ (BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate every paper artifact (tables + figures) as ASCII.
experiments:
	$(GO) run ./cmd/experiments -all -chart

ablations:
	$(GO) run ./cmd/experiments -ablations

# examples runs the five examples and fails unless their combined output
# matches examples/testdata/output.txt byte for byte. After a deliberate
# change to an example's output, re-record it with
#   for e in quickstart smarthome healthcare smartcity custom; do go run ./examples/$e; done > examples/testdata/output.txt
examples:
	@got=$$(mktemp) && trap 'rm -f "$$got"' EXIT && \
	for e in quickstart smarthome healthcare smartcity custom; do \
	  $(GO) run ./examples/$$e >> "$$got" || exit 1; \
	done && cat "$$got" && \
	if ! diff -u examples/testdata/output.txt "$$got"; then \
	  echo "examples: output differs from examples/testdata/output.txt"; exit 1; \
	fi; echo "examples: output matches examples/testdata/output.txt"

clean:
	$(GO) clean -testcache
