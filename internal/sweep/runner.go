package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Progress is invoked after each scenario finishes (success, failure or
// cancellation). done counts finished scenarios including this one; total
// is the number of scenarios this Run or Resume call is executing. Calls
// are serialised by the runner but arrive in completion order, which
// depends on scheduling — do not derive results from it.
type Progress func(done, total int, r Result)

// Runner executes scenarios on a bounded worker pool.
type Runner struct {
	// Workers bounds concurrent scenario execution. Zero or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, streams per-scenario completion events.
	Progress Progress
	// Shard, when non-zero, restricts execution to the scenarios this
	// shard owns (see Shard), so a grid can be split across machines: Run
	// returns other shards' results carrying ErrOtherShard, Resume never
	// re-runs them, and Progress counts only this shard's scenarios.
	Shard Shard
	// Obs, when non-nil, binds sweep-level metrics to the registry:
	// counters sweep_scenarios_scheduled / _completed / _failed,
	// sweep_busy_ns (summed scenario wall time) and per-worker
	// sweep_worker_busy_ns{worker="N"}. A live progress view (rate, ETA)
	// derives from scheduled vs completed.
	Obs *obs.Registry
}

// Run executes the scenarios and returns one Result per scenario, in
// scenario order regardless of completion order. A scenario that returns an
// error (or panics) is captured in its Result; the sweep continues. When
// ctx is cancelled, not-yet-started scenarios complete immediately with
// ctx's error — use Resume to finish them later. Scenarios already running
// see the cancellation through the ctx passed to their RunFunc; one that
// never re-checks it (the shipped simulators are single-shot) runs to
// completion first, so cancellation latency is bounded by the longest
// in-flight scenario. With Shard set, only the shard's scenarios execute;
// the rest complete immediately with ErrOtherShard.
func (r *Runner) Run(ctx context.Context, scenarios []Scenario) []Result {
	results := make([]Result, len(scenarios))
	indices := make([]int, 0, len(scenarios))
	for i, sc := range scenarios {
		if !r.Shard.Contains(sc) {
			results[i] = Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed, Err: ErrOtherShard}
			continue
		}
		indices = append(indices, i)
	}
	r.run(ctx, scenarios, indices, func(i int, res Result) { results[i] = res })
	return results
}

// Accumulate executes the scenarios like Run but folds every result into
// acc as workers finish, never materialising the full result slice — the
// streaming path for grids whose pooled results exceed memory. Scenarios
// outside the runner's shard are observed as ErrOtherShard (excluded from
// aggregation, exactly as Run marks them). The returned slice holds only
// the results that ran and failed, in scenario order, for error reporting;
// the error is the first accumulator rejection (a wiring bug such as a
// scenario list acc was not built for), if any.
func (r *Runner) Accumulate(ctx context.Context, scenarios []Scenario, acc *Accumulator) ([]Result, error) {
	ro := &resultObserver{acc: acc}
	indices := make([]int, 0, len(scenarios))
	for i, sc := range scenarios {
		if !r.Shard.Contains(sc) {
			ro.observe(i, Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed, Err: ErrOtherShard})
			continue
		}
		indices = append(indices, i)
	}
	r.run(ctx, scenarios, indices, ro.observe)
	return ro.done()
}

// ResumeAccumulate is Resume on the streaming path: prior results without
// an error feed acc as restored scenarios, errored ones (typically
// ErrNotRun placeholders from LoadCheckpoint, or context.Canceled from an
// interrupted run) re-execute, and — with Shard set — scenarios outside the
// shard are observed as ErrOtherShard whatever their prior state. The
// return values are those of Accumulate.
func (r *Runner) ResumeAccumulate(ctx context.Context, scenarios []Scenario, prior []Result, acc *Accumulator) ([]Result, error) {
	if len(prior) != len(scenarios) {
		panic(fmt.Sprintf("sweep: ResumeAccumulate with %d results for %d scenarios", len(prior), len(scenarios)))
	}
	ro := &resultObserver{acc: acc}
	var pending []int
	for i, res := range prior {
		sc := scenarios[i]
		if !r.Shard.Contains(sc) {
			ro.observe(i, Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed, Err: ErrOtherShard})
			continue
		}
		if res.Err != nil {
			pending = append(pending, i)
			continue
		}
		ro.observe(i, res)
	}
	r.run(ctx, scenarios, pending, ro.observe)
	return ro.done()
}

// ResumeCheckpointAccumulate is the streaming resume: it byte-offset-
// indexes the checkpoint file's records, executes only the scenarios the
// file does not cover, and feeds each restored record straight from disk
// into acc the moment the fold cursor reaches it — never materialising
// the restored []Result, so a sketch-mode resume of an arbitrarily large
// checkpoint aggregates in bounded memory (the prior-slice
// ResumeAccumulate necessarily peaks at the caller's restored pool). A
// missing file runs everything, like LoadCheckpoint; validation is
// LoadCheckpoint's, record for record. It returns the restored-scenario
// count alongside Accumulate's results; onRestored, when non-nil, receives
// that count after indexing but before any scenario executes, so a CLI can
// confirm the restore up front instead of hours later. The file must not
// be rewritten during the run (appends — a live Checkpoint on the same
// path recording re-run scenarios — are fine).
func (r *Runner) ResumeCheckpointAccumulate(ctx context.Context, path, label string, scenarios []Scenario, acc *Accumulator, onRestored func(restored int)) (int, []Result, error) {
	index := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		index[sc.Name] = i
	}
	refs := make([]recordRef, len(scenarios))
	for i := range refs {
		refs[i].file = -1
	}
	f, err := os.Open(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		f = nil // nothing restored; every shard-owned scenario runs
	case err != nil:
		return 0, nil, fmt.Errorf("sweep: open checkpoint: %w", err)
	default:
		defer f.Close()
		if err := checkHeader(f, path, label); err != nil {
			return 0, nil, err
		}
		err = scanRecordOffsets(f, path, scenarios, index, func(i int, off int64, n int) error {
			if refs[i].file < 0 { // duplicate record: first wins
				refs[i] = recordRef{file: 0, off: off, n: n}
			}
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
	}

	ro := &resultObserver{acc: acc}
	restored := 0
	var pending, restorable []int
	for i, sc := range scenarios {
		if !r.Shard.Contains(sc) {
			ro.observe(i, Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed, Err: ErrOtherShard})
			continue
		}
		if refs[i].file < 0 {
			pending = append(pending, i)
			continue
		}
		restorable = append(restorable, i)
		restored++
	}
	if onRestored != nil {
		onRestored(restored)
	}

	// feed reads restored records from disk exactly when the fold cursor
	// reaches them, so they fold immediately instead of parking in the
	// accumulator's pending set: restorable is ascending, and a record is
	// only read once every earlier scenario has been folded.
	var (
		feedMu sync.Mutex
		pos    int
		buf    []byte
	)
	feed := func() {
		feedMu.Lock()
		defer feedMu.Unlock()
		for pos < len(restorable) && restorable[pos] <= acc.Next() {
			i := restorable[pos]
			var res Result
			var err error
			res, buf, err = readRecordAt(f, path, refs[i], scenarios[i], buf)
			if err != nil {
				ro.fail(err)
				return
			}
			ro.observe(i, res)
			pos++
		}
	}
	feed()
	r.run(ctx, scenarios, pending, func(i int, res Result) {
		ro.observe(i, res)
		feed() // the cursor may now have reached parked restorable records
	})
	feed() // flush any restorable tail behind the last completion
	failed, err := ro.done()
	return restored, failed, err
}

// resultObserver serialises Accumulator feeding for the streaming runner
// paths, capturing failed (non-skipped) results and the first observation
// error.
type resultObserver struct {
	acc    *Accumulator
	mu     sync.Mutex
	err    error
	failed []indexedResult
}

func (o *resultObserver) observe(i int, res Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.acc.Observe(res); err != nil && o.err == nil {
		o.err = err
	}
	if res.Err != nil && !Skipped(res) {
		o.failed = append(o.failed, indexedResult{i, res})
	}
}

// fail records an out-of-band error (e.g. a checkpoint reread failure).
func (o *resultObserver) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = err
	}
}

// done returns the failed results in scenario order — matching the order
// Errored reports on the batch path — plus the first captured error.
func (o *resultObserver) done() ([]Result, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	sort.Slice(o.failed, func(a, b int) bool { return o.failed[a].i < o.failed[b].i })
	out := make([]Result, len(o.failed))
	for i, f := range o.failed {
		out[i] = f.res
	}
	return out, o.err
}

// indexedResult pairs a result with its scenario index so concurrent
// failure capture can be re-sorted into scenario order.
type indexedResult struct {
	i   int
	res Result
}

// Resume re-executes exactly the scenarios whose previous Result carries an
// error (typically context.Canceled from an interrupted Run, or ErrNotRun
// from LoadCheckpoint) and returns a patched copy of results. Successful
// results are untouched, so a cancel/resume pair yields the same result set
// as one uninterrupted run. With Shard set, every scenario outside the
// shard — restored or pending — comes back as ErrOtherShard: a checkpoint
// recorded under a different shard split (or none) must not leak foreign
// scenarios into this slice's output.
func (r *Runner) Resume(ctx context.Context, scenarios []Scenario, results []Result) []Result {
	if len(results) != len(scenarios) {
		panic(fmt.Sprintf("sweep: Resume with %d results for %d scenarios", len(results), len(scenarios)))
	}
	patched := append([]Result(nil), results...)
	var pending []int
	for i, res := range patched {
		if !r.Shard.Contains(scenarios[i]) {
			sc := scenarios[i]
			patched[i] = Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed, Err: ErrOtherShard}
			continue
		}
		if res.Err != nil {
			pending = append(pending, i)
		}
	}
	r.run(ctx, scenarios, pending, func(i int, res Result) { patched[i] = res })
	return patched
}

// run executes scenarios[i] for each i in indices, handing each completed
// result to emit. emit is called from the worker goroutines, one call per
// index, each index exactly once; the batch paths write a result slice, the
// streaming paths fold into an Accumulator.
func (r *Runner) run(ctx context.Context, scenarios []Scenario, indices []int, emit func(i int, res Result)) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(indices) {
		workers = len(indices)
	}
	if workers < 1 {
		return
	}

	var (
		mu   sync.Mutex
		done int
	)
	report := func(res Result) {
		if r.Progress == nil {
			return
		}
		mu.Lock()
		done++
		r.Progress(done, len(indices), res)
		mu.Unlock()
	}

	// Sweep-level instruments: all nil without r.Obs, making every update
	// below a nil-safe no-op. Metrics never influence scheduling.
	var (
		mCompleted = r.Obs.Counter("sweep_scenarios_completed")
		mFailed    = r.Obs.Counter("sweep_scenarios_failed")
		mBusy      = r.Obs.Counter("sweep_busy_ns")
	)
	r.Obs.Counter("sweep_scenarios_scheduled").Add(int64(len(indices)))

	queue := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		var wBusy *obs.Counter
		if r.Obs != nil {
			wBusy = r.Obs.Counter(obs.Labeled("sweep_worker_busy_ns", "worker", strconv.Itoa(w)))
		}
		go func() {
			defer wg.Done()
			for i := range queue {
				res := runOne(ctx, scenarios[i])
				emit(i, res)
				mCompleted.Inc()
				mBusy.Add(res.Elapsed.Nanoseconds())
				wBusy.Add(res.Elapsed.Nanoseconds())
				if res.Err != nil && !Skipped(res) {
					mFailed.Inc()
				}
				report(res)
			}
		}()
	}
	for _, i := range indices {
		queue <- i
	}
	close(queue)
	wg.Wait()
}

// runOne executes a single scenario, converting panics into errors so a
// buggy scenario cannot take down the sweep.
func runOne(ctx context.Context, sc Scenario) (res Result) {
	res = Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("scenario %s panicked: %v", sc.Name, p)
		}
	}()
	m, err := sc.Run(ctx)
	if err != nil {
		res.Err = fmt.Errorf("scenario %s: %w", sc.Name, err)
		return res
	}
	res.Metrics = m
	return res
}

// Errored returns the indices of results carrying an error, in order.
func Errored(results []Result) []int {
	var out []int
	for i, r := range results {
		if r.Err != nil {
			out = append(out, i)
		}
	}
	return out
}

// Skipped reports whether a result marks a scenario this process never
// executed — a restore placeholder (ErrNotRun) or another shard's
// scenario (ErrOtherShard) — as opposed to one that ran and failed.
// Aggregated excludes skipped results from both replica and failure
// counts.
func Skipped(r Result) bool {
	return errors.Is(r.Err, ErrNotRun) || errors.Is(r.Err, ErrOtherShard)
}
