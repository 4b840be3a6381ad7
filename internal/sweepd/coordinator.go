package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Defaults for Config's zero values.
const (
	// DefaultBatch is the scenarios-per-lease default: large enough to
	// amortise HTTP round trips, small enough that work stealing has
	// granularity to steal.
	DefaultBatch = 8
	// DefaultLeaseTTL is the lease time-to-live default. Workers
	// heartbeat at TTL/3, so one lost heartbeat does not strand a batch.
	DefaultLeaseTTL = time.Minute
)

// maxBody bounds one request body. Submissions carry checkpoint records
// (each line-capped at 64 MiB by the sweep package); a batch of them
// fits comfortably, while an adversarial stream cannot balloon memory.
const maxBody = 256 << 20

// Config parameterises NewCoordinator.
type Config struct {
	// Label is the sweep configuration label, exactly as cmd/sweep
	// computes it: it becomes the checkpoint header and every worker
	// must present it.
	Label string
	// Scenarios is the fully expanded grid, in scenario order.
	Scenarios []sweep.Scenario
	// CheckpointPath is the coordinator's JSONL checkpoint. It is always
	// opened in resume mode: records already present are restored, the
	// rest are queued — so a killed coordinator restarts byte-identically
	// by being started again with the same path.
	CheckpointPath string
	// Batch is the default scenarios-per-lease (0 = DefaultBatch).
	Batch int
	// LeaseTTL is how long a lease lives between heartbeats
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Obs, when non-nil, receives the service metrics (leases granted /
	// expired / outstanding, scenarios done / requeued, record dedups,
	// worker liveness).
	Obs *obs.Registry
	// Log, when non-nil, receives one line per lease grant, expiry,
	// submission and completion.
	Log io.Writer
	// Now overrides the clock (tests inject deterministic time).
	Now func() time.Time
}

// Scenario lease states.
const (
	statePending = iota // in the queue, waiting for a lease
	stateLeased         // out on a lease
	stateDone           // result held (success or deterministic failure)
)

// lease is one outstanding batch grant.
type lease struct {
	id      string
	worker  string
	indices []int
	expires time.Time
}

// Coordinator holds one expanded grid and leases it out batch by batch.
// All methods are safe for concurrent use; Handler exposes them over
// HTTP.
type Coordinator struct {
	label     string
	scenarios []sweep.Scenario
	index     map[string]int
	batch     int
	ttl       time.Duration
	now       func() time.Time
	log       io.Writer
	cp        *sweep.Checkpoint
	obs       *obs.Registry

	mu          sync.Mutex
	state       []uint8
	leaseOf     []string // lease id per scenario while stateLeased
	results     []sweep.Result
	queue       []int
	leases      map[string]*lease
	seq         int
	runTag      string
	restored    int
	doneCount   int
	failedCount int
	requeued    int64
	workers     map[string]time.Time
	start       time.Time
	complete    chan struct{}

	mGranted, mExpired, mRequeued *obs.Counter
	mAccepted, mDup, mRejected    *obs.Counter
	mHeartbeats, mFailed          *obs.Counter
	gOutstanding, gPending, gDone *obs.Gauge
	gWorkers                      *obs.Gauge
}

// NewCoordinator opens (or resumes) the checkpoint, restores every
// scenario it covers, queues the rest in scenario order and returns a
// coordinator ready to serve. The checkpoint's header label is verified
// against cfg.Label exactly as a single-host resume would.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Scenarios) == 0 {
		return nil, errors.New("sweepd: coordinator needs a non-empty scenario list")
	}
	if cfg.CheckpointPath == "" {
		return nil, errors.New("sweepd: coordinator needs a checkpoint path")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}

	restored, n, err := sweep.LoadCheckpoint(cfg.CheckpointPath, cfg.Label, cfg.Scenarios)
	if err != nil {
		return nil, err
	}
	cp, err := sweep.NewCheckpoint(cfg.CheckpointPath, cfg.Label)
	if err != nil {
		return nil, err
	}

	c := &Coordinator{
		label:     cfg.Label,
		scenarios: cfg.Scenarios,
		index:     make(map[string]int, len(cfg.Scenarios)),
		batch:     cfg.Batch,
		ttl:       cfg.LeaseTTL,
		now:       cfg.Now,
		log:       cfg.Log,
		cp:        cp,
		obs:       cfg.Obs,
		state:     make([]uint8, len(cfg.Scenarios)),
		leaseOf:   make([]string, len(cfg.Scenarios)),
		results:   make([]sweep.Result, len(cfg.Scenarios)),
		leases:    map[string]*lease{},
		restored:  n,
		workers:   map[string]time.Time{},
		complete:  make(chan struct{}),

		mGranted:     cfg.Obs.Counter("sweepd_leases_granted"),
		mExpired:     cfg.Obs.Counter("sweepd_leases_expired"),
		mRequeued:    cfg.Obs.Counter("sweepd_scenarios_requeued"),
		mAccepted:    cfg.Obs.Counter("sweepd_records_accepted"),
		mDup:         cfg.Obs.Counter("sweepd_records_duplicate"),
		mRejected:    cfg.Obs.Counter("sweepd_submissions_rejected"),
		mHeartbeats:  cfg.Obs.Counter("sweepd_heartbeats"),
		mFailed:      cfg.Obs.Counter("sweepd_scenarios_failed"),
		gOutstanding: cfg.Obs.Gauge("sweepd_leases_outstanding"),
		gPending:     cfg.Obs.Gauge("sweepd_scenarios_pending"),
		gDone:        cfg.Obs.Gauge("sweepd_scenarios_done"),
		gWorkers:     cfg.Obs.Gauge("sweepd_workers_live"),
	}
	c.start = c.now()
	// The run tag namespaces lease ids across coordinator restarts, so a
	// worker heartbeating a pre-restart lease cannot renew an unrelated
	// post-restart one that drew the same sequence number.
	c.runTag = strconv.FormatInt(c.start.UnixNano()&0xffffff, 36)
	for i, sc := range cfg.Scenarios {
		c.index[sc.Name] = i
		if restored[i].Err == nil {
			c.state[i] = stateDone
			c.results[i] = restored[i]
			c.doneCount++
		} else {
			c.queue = append(c.queue, i)
		}
	}
	cfg.Obs.Counter("sweepd_scenarios_total").Add(int64(len(cfg.Scenarios)))
	cfg.Obs.Counter("sweepd_scenarios_restored").Add(int64(n))
	if c.doneCount == len(c.scenarios) {
		close(c.complete)
	}
	c.updateGauges()
	c.logf("coordinator up: %d scenarios, %d restored from %s, batch %d, lease TTL %s",
		len(c.scenarios), n, cfg.CheckpointPath, c.batch, c.ttl)
	return c, nil
}

// Restored returns how many scenarios the checkpoint covered at startup.
func (c *Coordinator) Restored() int { return c.restored }

// Total returns the grid's scenario count.
func (c *Coordinator) Total() int { return len(c.scenarios) }

// Done returns how many scenarios have a result (success or failure).
func (c *Coordinator) Done() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneCount
}

// Complete reports whether every scenario has a result.
func (c *Coordinator) Complete() bool {
	select {
	case <-c.complete:
		return true
	default:
		return false
	}
}

// Wait blocks until the grid is complete or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.complete:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close closes the checkpoint and reports its first write error, if any.
func (c *Coordinator) Close() error { return c.cp.Close() }

// logf emits one log line; callers may hold c.mu (the writer is only
// touched here, so lines cannot interleave).
func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.log != nil {
		fmt.Fprintf(c.log, "sweepd: "+format+"\n", args...)
	}
}

// updateGauges refreshes the live gauges; callers hold c.mu.
func (c *Coordinator) updateGauges() {
	c.gOutstanding.Set(int64(len(c.leases)))
	c.gPending.Set(int64(len(c.queue)))
	c.gDone.Set(int64(c.doneCount))
	live := 0
	cutoff := c.now().Add(-2 * c.ttl)
	for _, seen := range c.workers {
		if seen.After(cutoff) {
			live++
		}
	}
	c.gWorkers.Set(int64(live))
}

// expireLocked re-queues every scenario still leased under an expired
// lease. Called lazily from every endpoint, so a dead worker's batch is
// stolen the moment any live worker next asks for work; callers hold
// c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		requeued := 0
		for _, i := range l.indices {
			if c.state[i] == stateLeased && c.leaseOf[i] == id {
				c.state[i] = statePending
				c.leaseOf[i] = ""
				c.queue = append(c.queue, i)
				requeued++
			}
		}
		delete(c.leases, id)
		c.requeued += int64(requeued)
		c.mExpired.Inc()
		c.mRequeued.Add(int64(requeued))
		c.logf("lease %s (worker %s) expired, %d scenarios re-queued", id, l.worker, requeued)
	}
}

// touchWorker records worker liveness; callers hold c.mu.
func (c *Coordinator) touchWorker(name string, now time.Time) {
	if name != "" {
		c.workers[name] = now
	}
}

// Lease grants the next batch. The returned status is http.StatusOK for
// every well-formed request (Done/Wait are in-band states, not errors);
// label mismatches are http.StatusConflict.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, int, error) {
	if req.Label != c.label {
		c.mu.Lock()
		c.mRejected.Inc()
		c.mu.Unlock()
		return LeaseResponse{}, http.StatusConflict,
			fmt.Errorf("sweepd: worker %q label %q does not match coordinator label %q", req.Worker, req.Label, c.label)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.touchWorker(req.Worker, now)
	c.expireLocked(now)
	defer c.updateGauges()

	if c.doneCount == len(c.scenarios) {
		return LeaseResponse{Done: true}, http.StatusOK, nil
	}
	if len(c.queue) == 0 {
		return LeaseResponse{Wait: true}, http.StatusOK, nil
	}

	max := c.batch
	if req.Max > 0 && req.Max < max {
		max = req.Max
	}
	if max > len(c.queue) {
		max = len(c.queue)
	}
	indices := append([]int(nil), c.queue[:max]...)
	c.queue = c.queue[max:]
	// Re-queued stragglers can arrive out of order; grant each batch in
	// scenario order so worker-side runs and logs read naturally.
	sort.Ints(indices)

	c.seq++
	l := &lease{
		id:      fmt.Sprintf("L%s-%d", c.runTag, c.seq),
		worker:  req.Worker,
		indices: indices,
		expires: now.Add(c.ttl),
	}
	c.leases[l.id] = l
	names := make([]string, len(indices))
	for k, i := range indices {
		c.state[i] = stateLeased
		c.leaseOf[i] = l.id
		names[k] = c.scenarios[i].Name
	}
	c.mGranted.Inc()
	c.logf("lease %s -> worker %s (%d scenarios)", l.id, req.Worker, len(indices))
	return LeaseResponse{
		LeaseID:   l.id,
		Scenarios: names,
		TTLMS:     c.ttl.Milliseconds(),
	}, http.StatusOK, nil
}

// Heartbeat renews a lease. An unknown lease (expired, or granted by a
// previous coordinator incarnation) answers OK false — the worker keeps
// running and submits anyway; the batch may just also be re-leased.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.touchWorker(req.Worker, now)
	c.expireLocked(now)
	c.mHeartbeats.Inc()
	defer c.updateGauges()
	l, ok := c.leases[req.LeaseID]
	if !ok {
		return HeartbeatResponse{OK: false}, http.StatusOK, nil
	}
	l.expires = now.Add(c.ttl)
	return HeartbeatResponse{OK: true, TTLMS: c.ttl.Milliseconds()}, http.StatusOK, nil
}

// Submit folds a finished batch in. The whole request is validated
// before any state changes: a wrong label, an unknown scenario name or a
// seed disagreeing with the grid's derivation rejects everything, so a
// misconfigured worker cannot corrupt the checkpoint. Valid records are
// folded first-write-wins — duplicates (re-leased batches, replays,
// post-restart resubmissions) are counted and dropped.
func (c *Coordinator) Submit(req SubmitRequest) (SubmitResponse, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.touchWorker(req.Worker, now)
	c.expireLocked(now)
	defer c.updateGauges()

	if req.Label != c.label {
		c.mRejected.Inc()
		return SubmitResponse{}, http.StatusConflict,
			fmt.Errorf("sweepd: submission label %q does not match coordinator label %q", req.Label, c.label)
	}
	// Validation pass: everything or nothing.
	for _, rec := range req.Records {
		i, ok := c.index[rec.Name]
		if !ok {
			c.mRejected.Inc()
			return SubmitResponse{}, http.StatusBadRequest,
				fmt.Errorf("sweepd: submission records unknown scenario %q (different grid?)", rec.Name)
		}
		if rec.Seed != c.scenarios[i].Seed {
			c.mRejected.Inc()
			return SubmitResponse{}, http.StatusBadRequest,
				fmt.Errorf("sweepd: submission scenario %q has seed %d, grid derives %d (different master seed?)",
					rec.Name, rec.Seed, c.scenarios[i].Seed)
		}
	}
	for _, f := range req.Failed {
		i, ok := c.index[f.Name]
		if !ok {
			c.mRejected.Inc()
			return SubmitResponse{}, http.StatusBadRequest,
				fmt.Errorf("sweepd: submission reports failure of unknown scenario %q", f.Name)
		}
		if f.Seed != c.scenarios[i].Seed {
			c.mRejected.Inc()
			return SubmitResponse{}, http.StatusBadRequest,
				fmt.Errorf("sweepd: submission failure for %q has seed %d, grid derives %d", f.Name, f.Seed, c.scenarios[i].Seed)
		}
	}

	var resp SubmitResponse
	for _, rec := range req.Records {
		i := c.index[rec.Name]
		if c.state[i] == stateDone {
			resp.Duplicates++
			c.mDup.Inc()
			continue
		}
		sc := c.scenarios[i]
		res := sweep.Result{
			Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed,
			Metrics: sweep.Metrics{Values: rec.Values, Samples: rec.Samples},
		}
		c.cp.Record(res) //nolint:errcheck — remembered by the checkpoint, surfaced at Close
		c.markDone(i, res)
		resp.Accepted++
		c.mAccepted.Inc()
	}
	for _, f := range req.Failed {
		i := c.index[f.Name]
		if c.state[i] == stateDone {
			resp.Duplicates++
			c.mDup.Inc()
			continue
		}
		sc := c.scenarios[i]
		// Not checkpointed — a restarted coordinator re-leases it, exactly
		// as a single-host resume re-runs errored scenarios.
		c.markDone(i, sweep.Result{
			Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed,
			Err: fmt.Errorf("sweepd: worker %s: %s", req.Worker, f.Error),
		})
		c.failedCount++
		c.mFailed.Inc()
		resp.Failures++
	}

	if l, ok := c.leases[req.LeaseID]; ok {
		open := false
		for _, i := range l.indices {
			if c.state[i] == stateLeased && c.leaseOf[i] == l.id {
				open = true
				break
			}
		}
		if !open {
			delete(c.leases, l.id)
		}
	}
	if c.doneCount == len(c.scenarios) {
		select {
		case <-c.complete:
		default:
			close(c.complete)
			c.logf("grid complete: %d scenarios (%d failed)", c.doneCount, c.failedCount)
		}
	}
	resp.Done = c.doneCount == len(c.scenarios)
	c.logf("submit %s %s: %d accepted, %d duplicate, %d failed (%d/%d done)",
		req.Worker, req.LeaseID, resp.Accepted, resp.Duplicates, resp.Failures, c.doneCount, len(c.scenarios))
	return resp, http.StatusOK, nil
}

// markDone transitions one scenario to stateDone; callers hold c.mu.
func (c *Coordinator) markDone(i int, res sweep.Result) {
	if c.state[i] == stateLeased {
		c.leaseOf[i] = ""
	} else if c.state[i] == statePending {
		// Still queued (its lease expired and it was re-queued, or the
		// coordinator restarted): drop it from the queue so it is never
		// granted again.
		for k, qi := range c.queue {
			if qi == i {
				c.queue = append(c.queue[:k], c.queue[k+1:]...)
				break
			}
		}
	}
	c.state[i] = stateDone
	c.results[i] = res
	c.doneCount++
}

// FoldInto observes every result in scenario order into acc — exactly
// the fold Runner.Accumulate performs, so the aggregates and their
// rendered bytes are identical to a single-host run. It fails
// if the grid is not complete.
func (c *Coordinator) FoldInto(acc *sweep.Accumulator) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.doneCount != len(c.scenarios) {
		return fmt.Errorf("sweepd: grid incomplete: %d/%d scenarios done", c.doneCount, len(c.scenarios))
	}
	for i := range c.results {
		if err := acc.Observe(c.results[i]); err != nil {
			return err
		}
	}
	return nil
}

// Failed returns the failed results, in scenario order.
func (c *Coordinator) Failed() []sweep.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []sweep.Result
	for i := range c.results {
		if c.state[i] == stateDone && c.results[i].Err != nil {
			out = append(out, c.results[i])
		}
	}
	return out
}

// State snapshots the coordinator for GET /state.
func (c *Coordinator) State() StateResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	c.updateGauges()
	st := StateResponse{
		Label:     c.label,
		Total:     len(c.scenarios),
		Done:      c.doneCount,
		Failed:    c.failedCount,
		Pending:   len(c.queue),
		Complete:  c.doneCount == len(c.scenarios),
		ReLeased:  c.requeued,
		UptimeSec: now.Sub(c.start).Seconds(),
	}
	// Count only scenarios still out under each lease: a batch can be
	// partially completed through another submission path (an overlapping
	// or replayed submit), and those scenarios are done, not leased.
	for _, l := range c.leases {
		live := 0
		for _, i := range l.indices {
			if c.state[i] == stateLeased && c.leaseOf[i] == l.id {
				live++
			}
		}
		st.Leased += live
		st.Leases = append(st.Leases, LeaseState{
			ID: l.id, Worker: l.worker, Scenarios: live,
			ExpiresIn: l.expires.Sub(now).Seconds(),
		})
	}
	sort.Slice(st.Leases, func(a, b int) bool { return st.Leases[a].ID < st.Leases[b].ID })
	for name, seen := range c.workers {
		st.Workers = append(st.Workers, WorkerState{Name: name, LastSeen: now.Sub(seen).Seconds()})
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].Name < st.Workers[b].Name })
	return st
}

// liveResults returns the done results in scenario order; for the live
// aggregate/percentile endpoints, which summarise what has finished so
// far without waiting for completion.
func (c *Coordinator) liveResults() []sweep.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sweep.Result, 0, c.doneCount)
	for i := range c.results {
		if c.state[i] == stateDone {
			out = append(out, c.results[i])
		}
	}
	return out
}

// Handler returns the coordinator's HTTP mux: the lease protocol (POST
// /lease, /heartbeat, /submit), live views (GET /state, /aggregate,
// /percentile) and — when the coordinator has a registry — the obs
// exposures at /metrics and /snapshot.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		postJSON(w, r, func(req LeaseRequest) (LeaseResponse, int, error) { return c.Lease(req) })
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		postJSON(w, r, func(req HeartbeatRequest) (HeartbeatResponse, int, error) { return c.Heartbeat(req) })
	})
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		postJSON(w, r, func(req SubmitRequest) (SubmitResponse, int, error) { return c.Submit(req) })
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.State())
	})
	mux.HandleFunc("/aggregate", func(w http.ResponseWriter, r *http.Request) {
		c.serveAggregate(w, r)
	})
	mux.HandleFunc("/percentile", func(w http.ResponseWriter, r *http.Request) {
		c.servePercentile(w, r)
	})
	if c.obs != nil {
		obsMux := obs.Handler(c.obs)
		mux.Handle("/metrics", obsMux)
		mux.Handle("/snapshot", obsMux)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "sweepd: POST /lease /heartbeat /submit; GET /state /aggregate /percentile /metrics /snapshot\n")
	})
	return mux
}

// serveAggregate renders the aggregates of everything done so far — the
// live counterpart of the final table, wrapped with progress counters.
func (c *Coordinator) serveAggregate(w http.ResponseWriter, r *http.Request) {
	aggs := sweep.Aggregated(c.liveResults())
	var buf bytes.Buffer
	if err := sweep.JSON(&buf, aggs); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	st := c.State()
	writeJSON(w, http.StatusOK, struct {
		Total      int             `json:"total"`
		Done       int             `json:"done"`
		Failed     int             `json:"failed"`
		Complete   bool            `json:"complete"`
		Aggregates json.RawMessage `json:"aggregates"`
	}{st.Total, st.Done, st.Failed, st.Complete, json.RawMessage(bytes.TrimSpace(buf.Bytes()))})
}

// servePercentile answers ?metric=NAME&p=95 per grid point over what has
// finished so far, interpolating the raw values the coordinator holds.
func (c *Coordinator) servePercentile(w http.ResponseWriter, r *http.Request) {
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "sweepd: /percentile needs ?metric=NAME"})
		return
	}
	p := 50.0
	if ps := r.URL.Query().Get("p"); ps != "" {
		var err error
		// !(p >= 0 && p <= 100) also rejects NaN, which every ordered
		// comparison fails and which would index the sorted values at
		// math.MinInt.
		if p, err = strconv.ParseFloat(ps, 64); err != nil || !(p >= 0 && p <= 100) {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("sweepd: bad percentile %q", ps)})
			return
		}
	}
	type row struct {
		Point  map[string]string `json:"point"`
		Metric string            `json:"metric"`
		P      float64           `json:"p"`
		Value  float64           `json:"value"`
	}
	aggs := sweep.Aggregated(c.liveResults())
	rows := make([]row, 0, len(aggs))
	for i := range aggs {
		a := &aggs[i]
		pt := map[string]string{}
		for _, kv := range a.Point {
			pt[kv.Key] = kv.Value
		}
		rows = append(rows, row{Point: pt, Metric: metric, P: p, Value: a.Percentile(metric, p)})
	}
	writeJSON(w, http.StatusOK, rows)
}

// postJSON decodes one JSON request body (size-capped, POST-only) and
// writes the JSON response or error. Torn or trailing-garbage bodies are
// rejected before the handler runs, so wire noise can never reach
// coordinator state.
func postJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, handle func(Req) (Resp, int, error)) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "sweepd: POST only"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	var req Req
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("sweepd: bad request body: %v", err)})
		return
	}
	if dec.More() {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "sweepd: trailing data after request body"})
		return
	}
	resp, status, err := handle(req)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, status, resp)
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone
}
