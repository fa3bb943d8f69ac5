package fleetd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/fleet"
	"iothub/internal/obs"
)

func testSpec() fleet.Spec {
	return fleet.Spec{
		Seed: 7,
		Grid: &fleet.Grid{
			Apps:           [][]apps.ID{{apps.StepCounter}, {apps.M2X}},
			Schemes:        []string{"baseline", "batching"},
			Windows:        []int{1},
			QoS:            []float64{0.25, 0.5, 0.75, 1},
			SkipAppCompute: true,
		},
	}
}

// oracle runs the spec in-process, single-worker — the byte-identity
// reference for every service-mode test.
func oracle(t *testing.T, spec fleet.Spec) []byte {
	t.Helper()
	res, err := fleet.Run(spec, fleet.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Agg.JSON()
}

func runWorkers(t *testing.T, c *Coordinator, n int, mk func(i int) WorkerConfig) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := mk(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := NewWorker(cfg)
			if err != nil {
				t.Errorf("worker %s: %v", cfg.ID, err)
				return
			}
			if err := w.Run(); err != nil {
				t.Errorf("worker %s: %v", cfg.ID, err)
			}
		}()
	}
	wg.Wait()
}

// A single worker over the loopback transport reproduces the in-process
// single-worker aggregates byte for byte.
func TestSingleWorkerMatchesInProcess(t *testing.T) {
	want := oracle(t, testSpec())
	c, err := New(Config{Spec: testSpec(), ShardSize: 3, MinShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runWorkers(t, c, 1, func(i int) WorkerConfig {
		return WorkerConfig{ID: "w0", Transport: Loopback{H: c.Handle}, Parallelism: 2}
	})
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 16 {
		t.Fatalf("completed %d scenarios, want 16", res.Completed)
	}
	if got := res.Agg.JSON(); !bytes.Equal(got, want) {
		t.Errorf("service aggregates diverge from in-process run:\n%s\nvs\n%s", got, want)
	}
}

// Several concurrent workers racing for shards still fold to the identical
// bytes: index-ordered folding erases completion order.
func TestConcurrentWorkersMatchInProcess(t *testing.T) {
	want := oracle(t, testSpec())
	c, err := New(Config{Spec: testSpec(), ShardSize: 2, MinShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runWorkers(t, c, 3, func(i int) WorkerConfig {
		return WorkerConfig{ID: string(rune('a' + i)), Transport: Loopback{H: c.Handle}, Seed: int64(i)}
	})
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Agg.JSON(); !bytes.Equal(got, want) {
		t.Errorf("multi-worker aggregates diverge:\n%s\nvs\n%s", got, want)
	}
}

// A replayed submission — same shard delivered twice — is acked stale and
// folds exactly once.
func TestSubmitIdempotent(t *testing.T) {
	c, err := New(Config{Spec: testSpec(), ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	grant := c.lease(LeaseRequest{Worker: "w"})
	if grant.Shard == nil {
		t.Fatal("no shard granted")
	}
	scens, _ := testSpec().Expand()
	records, err := fleet.RunRange(scens, grant.Shard.Start, grant.Shard.End, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Worker: "w", Shard: grant.Shard.ID, Attempt: grant.Shard.Attempt,
		Records: records, FP: RecordsFingerprint(records)}
	first := c.submit(req)
	if !first.OK || first.Stale {
		t.Fatalf("first submit: %+v", first)
	}
	second := c.submit(req)
	if !second.OK || !second.Stale {
		t.Fatalf("replayed submit not acked stale: %+v", second)
	}
	if st := c.Status(); st.Folded != 4 || st.ShardsDone != 1 || st.SubmitDuplicates != 1 {
		t.Errorf("after duplicate submit: folded=%d shardsDone=%d submitDuplicates=%d, want 4/1/1",
			st.Folded, st.ShardsDone, st.SubmitDuplicates)
	}
}

// A torn payload — fingerprint disagreeing with the records — is refused.
func TestSubmitRejectsCorruptPayload(t *testing.T) {
	c, err := New(Config{Spec: testSpec(), ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	grant := c.lease(LeaseRequest{Worker: "w"})
	scens, _ := testSpec().Expand()
	records, _ := fleet.RunRange(scens, grant.Shard.Start, grant.Shard.End, 1)
	fp := RecordsFingerprint(records)
	records[1].Metrics["total"] *= 2 // corrupt after fingerprinting
	ack := c.submit(SubmitRequest{Worker: "w", Shard: grant.Shard.ID, Records: records, FP: fp})
	if ack.OK || !strings.Contains(ack.Error, "fingerprint") {
		t.Errorf("corrupt payload accepted: %+v", ack)
	}
	// The shard is still leased; an honest resubmission succeeds.
	records2, _ := fleet.RunRange(scens, grant.Shard.Start, grant.Shard.End, 1)
	ack = c.submit(SubmitRequest{Worker: "w", Shard: grant.Shard.ID, Records: records2, FP: RecordsFingerprint(records2)})
	if !ack.OK || ack.Stale {
		t.Errorf("honest resubmission refused: %+v", ack)
	}
}

// An expired lease is reassigned with a bumped attempt, and sustained
// expiries step the degradation ladder: shard size halves, in-flight
// ceiling shrinks.
func TestLeaseExpiryReassignsAndDegrades(t *testing.T) {
	c, err := New(Config{
		Spec: testSpec(), ShardSize: 8, MinShardSize: 2,
		LeaseTTL: 20 * time.Millisecond, DegradeAfter: 2, MaxInflight: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := c.lease(LeaseRequest{Worker: "doomed"})
	if first.Shard == nil || first.Shard.Attempt != 1 {
		t.Fatalf("first lease: %+v", first)
	}
	// Never heartbeat; the janitor reaps it.
	deadline := time.Now().Add(2 * time.Second)
	for c.Status().Reassignments == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	second := c.lease(LeaseRequest{Worker: "healthy"})
	if second.Shard == nil {
		t.Fatal("no reassigned shard offered")
	}
	if second.Shard.ID == first.Shard.ID {
		t.Error("reassigned shard reuses the dead lease's ID")
	}
	if second.Shard.Start != first.Shard.Start || second.Shard.Attempt != 2 {
		t.Errorf("reassigned shard = %+v, want start %d attempt 2", second.Shard, first.Shard.Start)
	}
	// Let the second lease die too: two expiries at DegradeAfter=2 trip the ladder.
	for c.Status().Reassignments < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := c.Status()
	if st.DegradeLevel < 1 || st.ShardSize >= 8 {
		t.Errorf("ladder did not step: level=%d shardSize=%d", st.DegradeLevel, st.ShardSize)
	}
}

// A shard that keeps dying past MaxShardAttempts fails the sweep instead of
// spinning forever.
func TestShardAttemptLimitFailsSweep(t *testing.T) {
	c, err := New(Config{
		Spec: testSpec(), ShardSize: 16,
		LeaseTTL: 10 * time.Millisecond, MaxShardAttempts: 2, ReassignBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Lease-and-abandon until the coordinator gives up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		grant := c.lease(LeaseRequest{Worker: "flaky"})
		if grant.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Wait(); err == nil || !strings.Contains(err.Error(), "died") {
		t.Errorf("sweep error = %v, want shard-death failure", err)
	}
}

// The full HTTP stack: coordinator served over net/http, worker dialing over
// TCP, /status and /metrics live alongside the RPCs. /metrics reads its
// service state from Status, so even after every worker has left the
// liveness window each iothub_fleetd_* series equals the Status field it
// exports.
func TestHTTPServiceEndToEnd(t *testing.T) {
	const ttl = 100 * time.Millisecond
	want := oracle(t, testSpec())
	c, err := New(Config{Spec: testSpec(), ShardSize: 3, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := ServeHTTP("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	runWorkers(t, c, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			ID:        string(rune('a' + i)),
			Transport: HTTPTransport{Addr: srv.Addr(), Timeout: 2 * time.Second},
			Seed:      int64(i),
		}
	})
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Agg.JSON(); !bytes.Equal(got, want) {
		t.Errorf("HTTP-mode aggregates diverge:\n%s\nvs\n%s", got, want)
	}
	blob, err := HTTPTransport{Addr: srv.Addr(), Timeout: time.Second}.Call("/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Folded != 16 || st.Fingerprint != res.Agg.Fingerprint() {
		t.Errorf("status = %+v", st)
	}
	page, err := obs.Scrape(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"iothub_fleetd_shards_done", "iothub_fleetd_workers_live", "iothub_fleet_scenarios_done"} {
		if !strings.Contains(page, series) {
			t.Errorf("metrics page missing %s", series)
		}
	}

	time.Sleep(4 * ttl) // both workers fall out of the three-TTL liveness window
	if page, err = obs.Scrape(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if st = c.Status(); st.WorkersLive != 0 {
		t.Fatalf("workersLive = %d %v after the last RPC, want 0", st.WorkersLive, 4*ttl)
	}
	fleetd := map[string]int{
		"iothub_fleetd_shards_total":            st.ShardsTotal,
		"iothub_fleetd_shards_done":             st.ShardsDone,
		"iothub_fleetd_leases_active":           st.LeasesActive,
		"iothub_fleetd_lease_expiries_total":    st.Reassignments,
		"iothub_fleetd_submit_duplicates_total": st.SubmitDuplicates,
		"iothub_fleetd_degrade_level":           st.DegradeLevel,
		"iothub_fleetd_workers_live":            st.WorkersLive,
	}
	for _, line := range strings.Split(page, "\n") {
		name, value, _ := strings.Cut(line, " ")
		if v, ok := fleetd[name]; ok {
			if value != strconv.Itoa(v) {
				t.Errorf("/metrics %s = %s, /status reads %d", name, value, v)
			}
			delete(fleetd, name)
		}
	}
	for name := range fleetd {
		t.Errorf("/metrics lacks %s", name)
	}
}

// The coordinator's wire refuses what it must and keeps serving: a body over
// the 4 MiB cap gets 413 whether it declares its length or comes chunked, a
// GET to an RPC path gets 405 with a JSON error, and /status answers after
// each refusal.
func TestHTTPServiceRejectsOversizeAndWrongMethod(t *testing.T) {
	c, err := New(Config{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := ServeHTTP("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rpc := HTTPTransport{Addr: srv.Addr(), Timeout: 5 * time.Second}
	stillServing := func(after string) {
		t.Helper()
		if _, err := rpc.Call("/status", nil); err != nil {
			t.Errorf("after %s: /status: %v", after, err)
		}
	}

	oversize := bytes.Repeat([]byte{' '}, 4<<20+1)
	if _, err := rpc.Call("/submit", oversize); err == nil || !strings.Contains(err.Error(), "status 413") {
		t.Errorf("declared 4 MiB + 1 body: err = %v, want status 413", err)
	}
	stillServing("a declared oversize body")

	// io.MultiReader hides the body's length, so it goes out chunked.
	chunked, err := (&http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}).Post(
		"http://"+srv.Addr()+"/submit", "application/json", io.MultiReader(bytes.NewReader(oversize)))
	if err != nil {
		t.Fatal(err)
	}
	chunked.Body.Close()
	if chunked.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked 4 MiB + 1 body: status %d, want 413", chunked.StatusCode)
	}
	stillServing("a chunked oversize body")

	status, body, err := obs.Do("GET", srv.Addr(), "/lease", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusMethodNotAllowed || string(body) != `{"error":"use POST"}` {
		t.Errorf("GET /lease: %d %s, want 405 {\"error\":\"use POST\"}", status, body)
	}
	stillServing("a GET to /lease")
}

// The coordinator journals exactly like the in-process engine: kill it
// mid-sweep (MaxScenarios), start a fresh coordinator with -resume, finish —
// aggregates match the uninterrupted run byte for byte.
func TestCoordinatorCrashResume(t *testing.T) {
	want := oracle(t, testSpec())
	journal := filepath.Join(t.TempDir(), "fleetd.jsonl")

	first, err := New(Config{Spec: testSpec(), ShardSize: 3, Journal: journal, MaxScenarios: 7})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, first, 2, func(i int) WorkerConfig {
		return WorkerConfig{ID: string(rune('a' + i)), Transport: Loopback{H: first.Handle}, Seed: int64(i)}
	})
	res1, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	if res1.Completed < 7 || res1.Completed >= 16 {
		t.Fatalf("truncated run folded %d scenarios, want [7,16)", res1.Completed)
	}

	second, err := New(Config{Spec: testSpec(), ShardSize: 3, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	runWorkers(t, second, 2, func(i int) WorkerConfig {
		return WorkerConfig{ID: string(rune('A' + i)), Transport: Loopback{H: second.Handle}, Seed: int64(i)}
	})
	res2, err := second.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res1.Completed || res2.Completed != 16 {
		t.Fatalf("resume folded %d (resumed %d), want 16 (resumed %d)", res2.Completed, res2.Resumed, res1.Completed)
	}
	if got := res2.Agg.JSON(); !bytes.Equal(got, want) {
		t.Errorf("resumed aggregates diverge:\n%s\nvs\n%s", got, want)
	}
	// And the healed journal resumes under the in-process engine too — the
	// two engines share one journal format.
	res3, err := fleet.Run(testSpec(), fleet.Options{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Resumed != 16 {
		t.Errorf("in-process engine resumed %d from the service journal, want 16", res3.Resumed)
	}
}

// The two engines write the same journal bytes, and the coordinator resumes
// a journal fleet.Run cut short: the reverse of TestCoordinatorCrashResume's
// last step.
func TestEnginesShareJournal(t *testing.T) {
	dir := t.TempDir()
	serve := func(journal string, resume bool) *fleet.Result {
		t.Helper()
		c, err := New(Config{Spec: testSpec(), ShardSize: 3, Journal: journal, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		runWorkers(t, c, 2, func(i int) WorkerConfig {
			return WorkerConfig{ID: string(rune('a' + i)), Transport: Loopback{H: c.Handle}, Seed: int64(i)}
		})
		res, err := c.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	read := func(path string) []byte {
		t.Helper()
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	inProcess := filepath.Join(dir, "fleet.jsonl")
	if _, err := fleet.Run(testSpec(), fleet.Options{Workers: 2, Journal: inProcess}); err != nil {
		t.Fatal(err)
	}
	service := filepath.Join(dir, "fleetd.jsonl")
	serve(service, false)
	if !bytes.Equal(read(inProcess), read(service)) {
		t.Errorf("journals differ between engines:\n%s\nvs\n%s", read(inProcess), read(service))
	}

	cut := filepath.Join(dir, "cut.jsonl")
	if _, err := fleet.Run(testSpec(), fleet.Options{Workers: 2, Journal: cut, MaxScenarios: 5}); err != nil {
		t.Fatal(err)
	}
	res := serve(cut, true)
	if res.Resumed != 5 || res.Completed != 16 {
		t.Fatalf("coordinator resumed %d / completed %d, want 5 / 16", res.Resumed, res.Completed)
	}
	if got, want := res.Agg.JSON(), oracle(t, testSpec()); !bytes.Equal(got, want) {
		t.Errorf("resumed aggregates diverge:\n%s\nvs\n%s", got, want)
	}
	if !bytes.Equal(read(cut), read(inProcess)) {
		t.Errorf("healed journal differs from the uninterrupted one:\n%s\nvs\n%s", read(cut), read(inProcess))
	}
}

// A worker refuses a coordinator whose spec disagrees with what it expands
// locally (version skew between binaries).
func TestWorkerRejectsSpecSkew(t *testing.T) {
	c, err := New(Config{Spec: testSpec(), ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	skewed := func(path string, body []byte) (int, []byte) {
		status, resp := c.Handle(path, body)
		if path == "/spec" {
			var sp SpecResponse
			json.Unmarshal(resp, &sp)
			sp.Fingerprint = "0000000000000000"
			resp, _ = json.Marshal(sp)
		}
		return status, resp
	}
	if _, err := NewWorker(WorkerConfig{Transport: Loopback{H: skewed}, RetryBudget: 1}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("spec skew accepted: %v", err)
	}
}

// Unknown paths and malformed bodies come back as protocol errors, not
// panics.
func TestHandleRejectsGarbage(t *testing.T) {
	c, err := New(Config{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if status, _ := c.Handle("/nope", nil); status != 404 {
		t.Errorf("unknown path: status %d, want 404", status)
	}
	if status, _ := c.Handle("/lease", []byte("{broken")); status != 400 {
		t.Errorf("malformed lease body: status %d, want 400", status)
	}
	if status, _ := c.Handle("/submit", []byte(`"a string"`)); status != 400 {
		t.Errorf("mistyped submit body: status %d, want 400", status)
	}
}
