package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

const testLabel = "sweepd test config"

// testScenarios expands a small deterministic grid whose RunFuncs derive
// every metric from the scenario seed, so any execution order (or host)
// produces identical results.
func testScenarios(points, replicas int) []sweep.Scenario {
	vals := make([]string, points)
	for i := range vals {
		vals[i] = fmt.Sprintf("p%02d", i)
	}
	return sweep.NewGrid().Axis("k", vals...).Expand(42, replicas,
		func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
			return func(ctx context.Context) (sweep.Metrics, error) {
				r := rand.New(rand.NewSource(seed))
				m := sweep.NewMetrics()
				m.Set("x", r.Float64())
				m.Set("y", float64(r.Intn(100)))
				m.AddSamples("s", r.Float64(), r.Float64(), r.Float64())
				return m, nil
			}
		})
}

// fakeClock injects deterministic time into the coordinator.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestCoordinator builds a coordinator over a temp checkpoint.
func newTestCoordinator(t *testing.T, scenarios []sweep.Scenario, clock *fakeClock, cfg Config) (*Coordinator, string) {
	t.Helper()
	path := cfg.CheckpointPath
	if path == "" {
		path = filepath.Join(t.TempDir(), "coord.jsonl")
	}
	cfg.Label = testLabel
	cfg.Scenarios = scenarios
	cfg.CheckpointPath = path
	if clock != nil {
		cfg.Now = clock.Now
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, path
}

// record runs a scenario locally and shapes the result as a worker's
// submission record.
func record(t testing.TB, sc sweep.Scenario) sweep.CheckpointRecord {
	t.Helper()
	m, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.Name, err)
	}
	return sweep.CheckpointRecord{
		Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed,
		Values: m.Values, Samples: m.Samples,
	}
}

// submitLease runs and submits every scenario of one granted lease.
func submitLease(t *testing.T, c *Coordinator, worker string, lease LeaseResponse) SubmitResponse {
	t.Helper()
	req := SubmitRequest{Worker: worker, Label: testLabel, LeaseID: lease.LeaseID}
	for _, name := range lease.Scenarios {
		i, ok := c.index[name]
		if !ok {
			t.Fatalf("leased unknown scenario %q", name)
		}
		req.Records = append(req.Records, record(t, c.scenarios[i]))
	}
	resp, status, err := c.Submit(req)
	if err != nil || status != http.StatusOK {
		t.Fatalf("submit: status %d, err %v", status, err)
	}
	return resp
}

// drain leases and submits until the coordinator reports done.
func drain(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	for {
		lease, status, err := c.Lease(LeaseRequest{Worker: worker, Label: testLabel})
		if err != nil || status != http.StatusOK {
			t.Fatalf("lease: status %d, err %v", status, err)
		}
		if lease.Done {
			return
		}
		if lease.Wait {
			t.Fatal("coordinator asked a lone worker to wait: leaked lease")
		}
		submitLease(t, c, worker, lease)
	}
}

// renderAll renders an accumulator's aggregates in every format.
func renderAll(t *testing.T, acc *sweep.Accumulator) []byte {
	t.Helper()
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.Table("t", aggs).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sweep.CSV(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	if err := sweep.JSON(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceRender runs the grid through Runner.Accumulate — the
// single-host reference every service run must match byte for byte.
func referenceRender(t *testing.T, scenarios []sweep.Scenario) []byte {
	t.Helper()
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	if failed, err := (&sweep.Runner{}).Accumulate(context.Background(), scenarios, acc); err != nil || len(failed) > 0 {
		t.Fatalf("reference run: err %v, %d failed", err, len(failed))
	}
	return renderAll(t, acc)
}

func foldRender(t *testing.T, c *Coordinator, scenarios []sweep.Scenario) []byte {
	t.Helper()
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	if err := c.FoldInto(acc); err != nil {
		t.Fatal(err)
	}
	return renderAll(t, acc)
}

func TestCoordinatorLeaseDrain(t *testing.T) {
	scenarios := testScenarios(3, 2)
	c, _ := newTestCoordinator(t, scenarios, nil, Config{Batch: 4})
	drain(t, c, "w")
	if !c.Complete() || c.Done() != len(scenarios) {
		t.Fatalf("done %d/%d, complete %v", c.Done(), len(scenarios), c.Complete())
	}
	if got, want := foldRender(t, c, scenarios), referenceRender(t, scenarios); !bytes.Equal(got, want) {
		t.Error("service output differs from single-host reference")
	}
}

// TestCoordinatorPercentile pins GET /percentile: one row per grid point
// with the raw-value percentile of what has finished, and a 400 — never a
// handler panic — for every bad query, NaN included.
func TestCoordinatorPercentile(t *testing.T) {
	scenarios := testScenarios(3, 2)
	c, _ := newTestCoordinator(t, scenarios, nil, Config{Batch: 4})
	drain(t, c, "w")
	h := c.Handler()
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/percentile?"+query, nil))
		return rec
	}

	rec := get("metric=s&p=90")
	if rec.Code != http.StatusOK {
		t.Fatalf("good query: status %d: %s", rec.Code, rec.Body)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	aggs := sweep.Aggregated(c.liveResults())
	if len(rows) != len(aggs) {
		t.Fatalf("%d rows for %d grid points", len(rows), len(aggs))
	}
	for i, row := range rows {
		if want := aggs[i].Percentile("s", 90); row["value"] != want {
			t.Errorf("row %d: value %v, want %v", i, row["value"], want)
		}
		if _, ok := row["sketch"]; ok {
			t.Errorf("row %d still carries a sketch field: %v", i, row)
		}
	}

	for _, query := range []string{"p=50", "metric=s&p=abc", "metric=s&p=-1", "metric=s&p=101",
		"metric=s&p=NaN", "metric=s&p=nan", "metric=s&p=Inf", "metric=s&p=-Inf"} {
		if rec := get(query); rec.Code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", query, rec.Code)
		}
	}
}

// TestLeaseExpiryStealsWork pins the work-stealing rule: a lease that
// misses its TTL is re-queued and granted to the next asker, and the
// original holder's late submission is deduplicated.
func TestLeaseExpiryStealsWork(t *testing.T) {
	scenarios := testScenarios(1, 1)
	clock := newFakeClock()
	c, _ := newTestCoordinator(t, scenarios, clock, Config{Batch: 1, LeaseTTL: time.Minute})

	slow, _, err := c.Lease(LeaseRequest{Worker: "slow", Label: testLabel})
	if err != nil {
		t.Fatal(err)
	}
	// The grid's only scenario is out on the slow worker's lease.
	if waiting, _, _ := c.Lease(LeaseRequest{Worker: "fast", Label: testLabel}); !waiting.Wait {
		t.Fatalf("leased scenario granted twice: %+v", waiting)
	}
	clock.Advance(2 * time.Minute)

	fast, _, err := c.Lease(LeaseRequest{Worker: "fast", Label: testLabel})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Wait || fast.Done || fast.Scenarios[0] != slow.Scenarios[0] {
		t.Fatalf("expired lease not stolen: %+v", fast)
	}
	if st := c.State(); st.ReLeased != 1 {
		t.Fatalf("ReLeased = %d, want 1", st.ReLeased)
	}

	// Thief submits first; the slow worker's identical batch dedups.
	if resp := submitLease(t, c, "fast", fast); resp.Accepted != 1 {
		t.Fatalf("thief submit: %+v", resp)
	}
	if resp := submitLease(t, c, "slow", slow); resp.Duplicates != 1 || resp.Accepted != 0 {
		t.Fatalf("late submit not deduplicated: %+v", resp)
	}
	drain(t, c, "fast")
	if got, want := foldRender(t, c, scenarios), referenceRender(t, scenarios); !bytes.Equal(got, want) {
		t.Error("output differs from reference after re-lease + duplicate submission")
	}
}

// TestHeartbeatRenewsLease pins renewal: a heartbeat within the TTL keeps
// the batch out of other workers' hands arbitrarily long.
func TestHeartbeatRenewsLease(t *testing.T) {
	scenarios := testScenarios(1, 1)
	clock := newFakeClock()
	c, _ := newTestCoordinator(t, scenarios, clock, Config{LeaseTTL: time.Minute})

	lease, _, err := c.Lease(LeaseRequest{Worker: "holder", Label: testLabel})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(40 * time.Second)
		hb, _, err := c.Heartbeat(HeartbeatRequest{Worker: "holder", LeaseID: lease.LeaseID})
		if err != nil || !hb.OK {
			t.Fatalf("heartbeat %d: ok=%v err=%v", i, hb.OK, err)
		}
	}
	if other, _, _ := c.Lease(LeaseRequest{Worker: "other", Label: testLabel}); !other.Wait {
		t.Fatalf("renewed lease was stolen: %+v", other)
	}
	// Stop renewing: one TTL later the batch is up for grabs.
	clock.Advance(2 * time.Minute)
	if other, _, _ := c.Lease(LeaseRequest{Worker: "other", Label: testLabel}); other.Wait || other.Done {
		t.Fatalf("lapsed lease not re-granted: %+v", other)
	}
	if hb, _, _ := c.Heartbeat(HeartbeatRequest{Worker: "holder", LeaseID: lease.LeaseID}); hb.OK {
		t.Fatal("heartbeat renewed an expired lease")
	}
}

// TestSubmitWholeBatchValidation pins the all-or-nothing rule: one bad
// record rejects the entire submission before any state change.
func TestSubmitWholeBatchValidation(t *testing.T) {
	scenarios := testScenarios(2, 1)
	c, path := newTestCoordinator(t, scenarios, nil, Config{})
	good := record(t, scenarios[0])

	cases := []struct {
		name   string
		req    SubmitRequest
		status int
	}{
		{"label mismatch", SubmitRequest{Label: "other config", Records: []sweep.CheckpointRecord{good}}, http.StatusConflict},
		{"unknown scenario", SubmitRequest{Label: testLabel, Records: []sweep.CheckpointRecord{good, {Name: "k=zz #9", Seed: 1}}}, http.StatusBadRequest},
		{"seed mismatch", SubmitRequest{Label: testLabel, Records: []sweep.CheckpointRecord{good, {Name: scenarios[1].Name, Seed: scenarios[1].Seed + 1}}}, http.StatusBadRequest},
		{"failure for unknown scenario", SubmitRequest{Label: testLabel, Records: []sweep.CheckpointRecord{good}, Failed: []ScenarioFailure{{Name: "k=zz #9", Seed: 1, Error: "boom"}}}, http.StatusBadRequest},
		{"failure seed mismatch", SubmitRequest{Label: testLabel, Records: []sweep.CheckpointRecord{good}, Failed: []ScenarioFailure{{Name: scenarios[1].Name, Seed: 7, Error: "boom"}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, status, err := c.Submit(tc.req)
		if err == nil || status != tc.status {
			t.Errorf("%s: status %d err %v, want status %d + error", tc.name, status, err, tc.status)
		}
		if c.Done() != 0 {
			t.Fatalf("%s: rejected submission changed state (done=%d)", tc.name, c.Done())
		}
	}
	// The checkpoint saw none of it: a fresh load restores zero scenarios.
	if _, n, err := sweep.LoadCheckpoint(path, testLabel, scenarios); err != nil || n != 0 {
		t.Fatalf("checkpoint after rejections: restored %d, err %v", n, err)
	}
}

// TestDuplicateFirstWriteWins pins the dedup rule with a conflicting
// payload: the first accepted record sticks even if a later duplicate
// carries different values.
func TestDuplicateFirstWriteWins(t *testing.T) {
	scenarios := testScenarios(1, 1)
	c, _ := newTestCoordinator(t, scenarios, nil, Config{})
	first := record(t, scenarios[0])
	if resp, _, err := c.Submit(SubmitRequest{Label: testLabel, Records: []sweep.CheckpointRecord{first}}); err != nil || resp.Accepted != 1 {
		t.Fatalf("first submit: %+v err %v", resp, err)
	}
	forged := first
	forged.Values = map[string]float64{"x": -1}
	resp, _, err := c.Submit(SubmitRequest{Label: testLabel, Records: []sweep.CheckpointRecord{forged}})
	if err != nil || resp.Duplicates != 1 || resp.Accepted != 0 {
		t.Fatalf("duplicate submit: %+v err %v", resp, err)
	}
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	if err := c.FoldInto(acc); err != nil {
		t.Fatal(err)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := aggs[0].Mean("x"), first.Values["x"]; got != want {
		t.Fatalf("fold used duplicate payload: x = %g, want first-written %g", got, want)
	}
}

// TestCoordinatorResume kills the coordinator (by dropping it) halfway
// and restarts on the same checkpoint: the restored half is not re-run,
// in-flight leases are forgotten (their scenarios re-queued implicitly),
// and the final bytes match the single-host reference.
func TestCoordinatorResume(t *testing.T) {
	scenarios := testScenarios(4, 2)
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	c1, _ := newTestCoordinator(t, scenarios, nil, Config{Batch: 3, CheckpointPath: path})

	lease, _, err := c1.Lease(LeaseRequest{Worker: "w", Label: testLabel})
	if err != nil {
		t.Fatal(err)
	}
	submitLease(t, c1, "w", lease)
	// A second lease goes out but never comes back — the "coordinator
	// dies with a batch in flight" shape.
	if _, _, err := c1.Lease(LeaseRequest{Worker: "w", Label: testLabel}); err != nil {
		t.Fatal(err)
	}
	done := c1.Done()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, _ := newTestCoordinator(t, scenarios, nil, Config{Batch: 3, CheckpointPath: path})
	if c2.Restored() != done {
		t.Fatalf("restored %d, want %d", c2.Restored(), done)
	}
	drain(t, c2, "w2")
	if got, want := foldRender(t, c2, scenarios), referenceRender(t, scenarios); !bytes.Equal(got, want) {
		t.Error("resumed output differs from reference")
	}
}

// TestFailedScenarioNotCheckpointed pins failure semantics: a reported
// failure completes the grid (Failed lists it) but never reaches the
// checkpoint, so a coordinator restart re-leases it — the same contract
// as a single-host resume re-running errored scenarios.
func TestFailedScenarioNotCheckpointed(t *testing.T) {
	scenarios := testScenarios(2, 1)
	path := filepath.Join(t.TempDir(), "fail.jsonl")
	c1, _ := newTestCoordinator(t, scenarios, nil, Config{CheckpointPath: path})

	req := SubmitRequest{Worker: "w", Label: testLabel,
		Records: []sweep.CheckpointRecord{record(t, scenarios[0])},
		Failed:  []ScenarioFailure{{Name: scenarios[1].Name, Seed: scenarios[1].Seed, Error: "injected"}},
	}
	resp, _, err := c1.Submit(req)
	if err != nil || resp.Accepted != 1 || resp.Failures != 1 || !resp.Done {
		t.Fatalf("submit: %+v err %v", resp, err)
	}
	if !c1.Complete() || len(c1.Failed()) != 1 {
		t.Fatalf("complete %v, failed %d", c1.Complete(), len(c1.Failed()))
	}
	// The fold still works — exactly like a single-host run, the failed
	// scenario is excluded from aggregation and counted in Failed.
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	if err := c1.FoldInto(acc); err != nil {
		t.Fatal(err)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	failedRows := 0
	for i := range aggs {
		failedRows += aggs[i].Failed
	}
	if failedRows != 1 {
		t.Fatalf("aggregates count %d failed replicas, want 1", failedRows)
	}
	c1.Close()

	c2, _ := newTestCoordinator(t, scenarios, nil, Config{CheckpointPath: path})
	if c2.Restored() != 1 || c2.Complete() {
		t.Fatalf("restart: restored %d, complete %v — failed scenario leaked into checkpoint", c2.Restored(), c2.Complete())
	}
	lease, _, err := c2.Lease(LeaseRequest{Worker: "w", Label: testLabel})
	if err != nil || len(lease.Scenarios) != 1 || lease.Scenarios[0] != scenarios[1].Name {
		t.Fatalf("restart did not re-lease the failed scenario: %+v err %v", lease, err)
	}
}

// TestLeaseRejectsForeignLabel pins the label gate on the lease path.
func TestLeaseRejectsForeignLabel(t *testing.T) {
	c, _ := newTestCoordinator(t, testScenarios(1, 1), nil, Config{})
	_, status, err := c.Lease(LeaseRequest{Worker: "w", Label: "other config"})
	if err == nil || status != http.StatusConflict {
		t.Fatalf("foreign label lease: status %d err %v", status, err)
	}
}

// TestCoordinatorChaosProperty is the property test: random grids ×
// worker counts × injected lease expiries, duplicate submissions and
// coordinator restarts, checked against Runner.Accumulate (DeepEqual on
// aggregates, and byte-equal rendering).
func TestCoordinatorChaosProperty(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + iter)))
			scenarios := testScenarios(1+rng.Intn(5), 1+rng.Intn(3))
			workers := 1 + rng.Intn(4)
			clock := newFakeClock()
			path := filepath.Join(t.TempDir(), "chaos.jsonl")
			cfg := Config{Batch: 1 + rng.Intn(3), LeaseTTL: time.Minute, CheckpointPath: path}
			c, _ := newTestCoordinator(t, scenarios, clock, cfg)

			// Outstanding leases per simulated worker, plus a history of
			// submitted batches for replay.
			type held struct {
				worker string
				lease  LeaseResponse
			}
			var outstanding []held
			var history []SubmitRequest
			buildReq := func(h held) SubmitRequest {
				req := SubmitRequest{Worker: h.worker, Label: testLabel, LeaseID: h.lease.LeaseID}
				for _, name := range h.lease.Scenarios {
					req.Records = append(req.Records, record(t, c.scenarios[c.index[name]]))
				}
				return req
			}
			for !c.Complete() {
				switch op := rng.Intn(10); {
				case op < 4: // lease as a random worker
					w := fmt.Sprintf("w%d", rng.Intn(workers))
					lease, status, err := c.Lease(LeaseRequest{Worker: w, Label: testLabel})
					if err != nil || status != http.StatusOK {
						t.Fatalf("lease: status %d err %v", status, err)
					}
					if !lease.Done && !lease.Wait {
						outstanding = append(outstanding, held{w, lease})
					}
				case op < 8 && len(outstanding) > 0: // submit a random outstanding batch
					k := rng.Intn(len(outstanding))
					h := outstanding[k]
					outstanding = append(outstanding[:k], outstanding[k+1:]...)
					req := buildReq(h)
					if _, status, err := c.Submit(req); err != nil || status != http.StatusOK {
						t.Fatalf("submit: status %d err %v", status, err)
					}
					history = append(history, req)
				case op == 8: // expire every outstanding lease
					clock.Advance(2 * time.Minute)
					// The holders are now stale; their submissions, if the
					// rng replays them, arrive as duplicates or post-expiry
					// submissions — both legal.
					if rng.Intn(2) == 0 {
						outstanding = nil
					}
				case op == 9 && len(history) > 0: // replay an old submission verbatim
					req := history[rng.Intn(len(history))]
					if _, status, err := c.Submit(req); err != nil || status != http.StatusOK {
						t.Fatalf("replay: status %d err %v", status, err)
					}
				default: // restart the coordinator mid-run
					if rng.Intn(4) != 0 {
						continue
					}
					c.Close()
					c, _ = newTestCoordinator(t, scenarios, clock, cfg)
					outstanding = nil
				}
			}

			accSvc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
			if err := c.FoldInto(accSvc); err != nil {
				t.Fatal(err)
			}
			accRef := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
			if failed, err := (&sweep.Runner{Workers: workers}).Accumulate(context.Background(), scenarios, accRef); err != nil || len(failed) > 0 {
				t.Fatalf("reference: err %v, %d failed", err, len(failed))
			}
			got, err1 := accSvc.Aggregates()
			want, err2 := accRef.Aggregates()
			if err1 != nil || err2 != nil {
				t.Fatalf("aggregates: %v / %v", err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("aggregates differ from Runner.Accumulate")
			}
			if !bytes.Equal(renderAll(t, accSvc), renderAll(t, accRef)) {
				t.Error("rendered bytes differ from Runner.Accumulate")
			}
		})
	}
}

// TestWorkerLoopEndToEnd runs real RunWorker loops against the
// coordinator's HTTP handler: three workers drain the grid concurrently
// and the fold matches the single-host reference.
func TestWorkerLoopEndToEnd(t *testing.T) {
	scenarios := testScenarios(4, 2)
	reg := obs.New("test")
	c, _ := newTestCoordinator(t, scenarios, nil, Config{Batch: 2, Obs: reg})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", i),
				Label:       testLabel,
				Scenarios:   scenarios,
				Workers:     1,
				Poll:        10 * time.Millisecond,
				Patience:    5 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if !c.Complete() {
		t.Fatal("grid incomplete after all workers exited")
	}
	if got, want := foldRender(t, c, scenarios), referenceRender(t, scenarios); !bytes.Equal(got, want) {
		t.Error("3-worker output differs from single-host reference")
	}
	if v := reg.Counter("sweepd_records_accepted").Value(); v != int64(len(scenarios)) {
		t.Errorf("accepted counter = %d, want %d", v, len(scenarios))
	}
}

// TestWorkerRejectsForeignGrid pins the worker-side fail-loudly rule: a
// label mismatch is fatal, not retried.
func TestWorkerRejectsForeignGrid(t *testing.T) {
	scenarios := testScenarios(2, 1)
	c, _ := newTestCoordinator(t, scenarios, nil, Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL,
		Name:        "misfit",
		Label:       "different config",
		Scenarios:   scenarios,
		Poll:        10 * time.Millisecond,
		Patience:    time.Second,
	})
	if err == nil || !fatal(err) {
		t.Fatalf("foreign-label worker err = %v, want fatal rejection", err)
	}
	if c.Done() != 0 {
		t.Fatalf("foreign worker made progress: done=%d", c.Done())
	}
}
