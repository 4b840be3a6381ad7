package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/chunknet"
	"repro/internal/flowsim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// fig4 is the fig4-pool workload: the BenchmarkFig4Huge recipe on Exodus,
// run to completion with INRP (pooled) and SP (baseline).
type fig4 struct {
	flows int
	seed  int64

	g     *topo.Graph
	trace []workload.Flow
	inrp  *flowsim.Result
	sp    *flowsim.Result
}

// fig4Rate is the arrival rate of BenchmarkFig4Huge's recipe at 30k flows
// (count/8 per second). The workload keeps that rate, and so the same
// concurrency, but stops at fewer flows so a pass is short enough to
// repeat many times in one run.
const fig4Rate = 30_000.0 / 8

func newFig4(seed int64, toy bool) bench {
	n := 10_000
	if toy {
		n = 600
	}
	return &fig4{flows: n, seed: seed}
}

func (b *fig4) build(t *tracer) error {
	if _, err := t.time("topo.build_s", func() error {
		b.g = topo.MustBuildISP(topo.Exodus)
		b.g.SetAllCapacities(450 * units.Mbps)
		return nil
	}); err != nil {
		return err
	}
	_, err := t.time("workload.generate_s", func() error {
		b.trace = workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(fig4Rate, workload.SplitSeed(b.seed, 0)),
			Sizes: workload.NewBoundedPareto(1.5, 32*units.KB, 4*units.MB,
				workload.SplitSeed(b.seed, 1)),
			Matrix: workload.NewGravity(b.g, workload.SplitSeed(b.seed, 2)),
			Count:  b.flows,
		})
		return nil
	})
	return err
}

func (b *fig4) prepare(*tracer) error { return nil }

func (b *fig4) pass(t *tracer, _ int, c *checks) (passOut, error) {
	run := func(pol flowsim.Policy, name string) (*flowsim.Result, time.Duration, error) {
		var r *flowsim.Result
		alloc0 := heapAllocs()
		d, err := t.time("flowsim.run_s."+name, func() (err error) {
			r, err = flowsim.Run(flowsim.Config{
				Graph: b.g, Policy: pol, Flows: b.trace,
				DemandCap: 100 * units.Mbps, Obs: t.reg(name),
			})
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("flowsim %s: %w", name, err)
		}
		if t != nil {
			fills := t.delta(name, "flowsim_alloc_fills")
			t.count("flowsim.alloc_fills."+name, fills)
			t.count("flowsim.alloc_mb."+name, float64(heapAllocs()-alloc0)/1e6)
			if fills > 0 {
				t.count("flowsim.ns_per_fill."+name, float64(d.Nanoseconds())/fills)
			}
		}
		return r, d, nil
	}
	inrp, dInrp, err := run(flowsim.INRP, "inrp")
	if err != nil {
		return passOut{}, err
	}
	sp, dSP, err := run(flowsim.SP, "sp")
	if err != nil {
		return passOut{}, err
	}
	t.count("flowsim.backpressure_events", t.delta("inrp", "flowsim_backpressure_events"))
	b.inrp, b.sp = inrp, sp
	checkFig4(c, b.flows, inrp, sp)
	return passOut{
		pooled:   side{dInrp, float64(inrp.Completed)},
		baseline: side{dSP, float64(sp.Completed)},
		digest:   digest(func(h hash.Hash) { digestFlow(h, inrp); digestFlow(h, sp) }),
	}, nil
}

// checkFig4 checks one pass: every flow completes under both policies, and
// pooling satisfies at least as much demand as shortest-path routing.
func checkFig4(c *checks, flows int, inrp, sp *flowsim.Result) {
	for _, r := range []*flowsim.Result{inrp, sp} {
		c.expect(r.Total == flows && r.Completed == flows,
			"%v completed %d of %d flows (%d arrived)", r.Policy, r.Completed, flows, r.Total)
	}
	c.expect(inrp.DemandSatisfied >= sp.DemandSatisfied,
		"INRP satisfied %.6f of demand, below SP's %.6f", inrp.DemandSatisfied, sp.DemandSatisfied)
}

func digestFlow(h hash.Hash, r *flowsim.Result) {
	fmt.Fprintln(h, r.Policy, r.Offered, r.Delivered, r.Duration, r.Total, r.Completed,
		r.GoodputRatio, r.Utilization, r.FCTSeconds.Mean(), r.FCTSeconds.Std(),
		r.FCTSeconds.Max(), r.Jain, r.DetouredShare, r.Backpressured, r.DemandSatisfied,
		len(r.Stretch))
	for _, s := range r.Stretch {
		fmt.Fprint(h, s, " ")
	}
}

// fanin is the custody-fanin workload: transfers from eight leaves through
// a hub onto one 2 Gbps bottleneck, INRPP with custody (pooled) against
// AIMD with drop-tail (baseline), each run to completion.
type fanin struct {
	transfers int
	chunks    int64
	horizon   time.Duration
	seed      int64

	g      *topo.Graph
	starts []time.Duration
	sims   [2]*chunknet.Sim
	reps   [2]*chunknet.Report
}

// faninSides names the two transports, pooled first.
var faninSides = [2]string{"inrpp", "aimd"}

const faninLeaves = 8

func newFanin(seed int64, toy bool) bench {
	b := &fanin{transfers: 64, chunks: 1500, horizon: 12 * time.Second, seed: seed}
	if toy {
		b.transfers, b.chunks, b.horizon = 8, 100, time.Second
	}
	return b
}

func (b *fanin) build(t *tracer) error {
	if _, err := t.time("topo.build_s", func() error {
		g := topo.New("fanin")
		g.AddNodes(faninLeaves + 2)
		hub, sink := topo.NodeID(faninLeaves), topo.NodeID(faninLeaves+1)
		for l := 0; l < faninLeaves; l++ {
			g.MustAddLink(topo.NodeID(l), hub, 10*units.Gbps, time.Millisecond)
		}
		g.MustAddLink(hub, sink, 2*units.Gbps, time.Millisecond)
		b.g = g
		return nil
	}); err != nil {
		return err
	}
	// Transfers start a millisecond apart, as in BenchmarkChunknetFanIn,
	// so the push arrives as a burst the bottleneck must absorb; the seed
	// jitters each start within its millisecond.
	rng := rand.New(rand.NewSource(b.seed))
	b.starts = make([]time.Duration, b.transfers)
	for i := range b.starts {
		b.starts[i] = time.Duration(i)*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
	}
	return b.prepare(t)
}

// prepare builds fresh simulators: a chunknet.Sim runs once.
func (b *fanin) prepare(t *tracer) error {
	for i, name := range faninSides {
		cfg := chunknet.Config{
			Graph: b.g, ChunkSize: 10 * units.KB, Anticipation: 64,
			Ti: 10 * time.Millisecond, Obs: t.reg(name),
		}
		if i == 0 {
			cfg.Transport = chunknet.INRPP
			cfg.CustodyBytes = 200 * units.MB
			cfg.InitialRequestRate = units.Gbps
		} else {
			cfg.Transport = chunknet.AIMD
		}
		if _, err := t.time("chunknet.new_s", func() (err error) {
			b.sims[i], err = chunknet.New(cfg)
			if err != nil {
				return err
			}
			for j, start := range b.starts {
				if err := b.sims[i].AddTransfer(chunknet.Transfer{
					ID: j + 1, Src: topo.NodeID(j % faninLeaves), Dst: faninLeaves + 1,
					Chunks: b.chunks, Start: start,
				}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("chunknet %s: %w", name, err)
		}
	}
	return nil
}

func (b *fanin) pass(t *tracer, _ int, c *checks) (passOut, error) {
	var walls [2]time.Duration
	for i, name := range faninSides {
		walls[i], _ = t.time("chunknet.run_s."+name, func() error {
			b.reps[i] = b.sims[i].Run(b.horizon)
			return nil
		})
		b.sims[i] = nil
		if t != nil {
			if fired := t.delta(name, "des_events_fired"); fired > 0 {
				t.count("des.ns_per_event."+name, float64(walls[i].Nanoseconds())/fired)
			}
		}
	}
	in, aimd := b.reps[0], b.reps[1]
	if t != nil {
		chunknetCounts(t, faninSides[:])
		t.count("cache.custody_peak_mb", float64(in.CustodyPeak)/1e6)
		t.count("cache.residency_mean_s", in.CustodyResidency.Mean())
		t.count("core.closed_loop_entries", float64(in.ClosedLoopEntries))
	}
	checkFanin(c, b.transfers, b.chunks, in, aimd)
	return passOut{
		pooled:   side{walls[0], float64(delivered(in))},
		baseline: side{walls[1], float64(delivered(aimd))},
		digest:   digest(func(h hash.Hash) { digestChunk(h, in); digestChunk(h, aimd) }),
	}, nil
}

// checkFanin checks one pass: every transfer completes with all its
// chunks under both transports, and custody keeps INRPP drop-free.
func checkFanin(c *checks, transfers int, chunks int64, inrpp, aimd *chunknet.Report) {
	for _, r := range []*chunknet.Report{inrpp, aimd} {
		want := int64(transfers) * chunks
		c.expect(len(r.Completions) == transfers && delivered(r) == want,
			"%v completed %d of %d transfers, delivered %d of %d chunks",
			r.Transport, len(r.Completions), transfers, delivered(r), want)
	}
	c.expect(inrpp.ChunksDropped == 0, "INRPP dropped %d chunks", inrpp.ChunksDropped)
}

// delivered counts distinct chunks delivered over all transfers.
func delivered(r *chunknet.Report) int64 {
	var n int64
	for _, d := range r.DeliveredPerFlow {
		n += d
	}
	return n
}

func digestChunk(h hash.Hash, r *chunknet.Report) {
	fmt.Fprintln(h, r.Transport, r.Duration, r.ChunksSent, r.ChunksDelivered, r.ChunksDropped,
		r.ChunksDetoured, r.Retransmits, r.CustodyPeak, r.CustodyResidency.Mean(),
		r.CustodyResidency.N(), r.BackpressureOn, r.ClosedLoopEntries)
	ids := make([]int, 0, len(r.Completions))
	for id := range r.Completions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprint(h, id, ":", r.Completions[id], " ")
	}
}

// chunknetCounts records the chunk-level and DES counts of one traced
// pass, summed over the given sides' registries.
func chunknetCounts(t *tracer, sides []string) {
	sum := func(counter string) float64 {
		var v float64
		for _, s := range sides {
			v += t.delta(s, counter)
		}
		return v
	}
	for metric, counter := range map[string]string{
		"des.events_fired":          "des_events_fired",
		"des.events_scheduled":      "des_events_scheduled",
		"chunknet.chunks_sent":      "chunknet_chunks_sent",
		"chunknet.retransmits":      "chunknet_retransmits",
		"chunknet.dropped":          "chunknet_chunks_dropped",
		"chunknet.rto_fires":        "chunknet_rto_fires",
		"chunknet.pkts_lost_random": "chunknet_pkts_lost_random",
		"chunknet.evacuated":        "chunknet_chunks_evacuated",
		"chunknet.requeued":         "chunknet_chunks_requeued",
		"core.backpressure_on":      "chunknet_backpressure_on",
	} {
		t.count(metric, sum(counter))
	}
	if sent := sum("chunknet_chunks_sent"); sent > 0 {
		t.count("chunknet.delivered_per_sent", sum("chunknet_chunks_delivered")/sent)
	}
}

// grid is the failure-grid workload: a sweep over loss × failover ×
// transfers on the failover diamond with exponential churn on the egress
// link, as an INRPP grid (pooled) and an AIMD grid (baseline) with the
// same points and seeds.
type grid struct {
	replicas int
	seed     int64

	scen    [2][]sweep.Scenario // untraced scenarios; traced ones bind registries
	traced  [2][]sweep.Scenario
	results [2][]sweep.Result // every result of the last traced pass
}

// gridSides names the two grids, pooled first.
var gridSides = [2]string{"inrpp", "aimd"}

func newGrid(seed int64, toy bool) bench {
	b := &grid{replicas: 100, seed: seed}
	if toy {
		b.replicas = 2
	}
	return b
}

func (b *grid) build(t *tracer) error {
	dst := &b.scen
	if t != nil {
		dst = &b.traced
	}
	_, err := t.time("sweep.expand_s", func() error {
		for i, name := range gridSides {
			transport := sweep.MustParseTransport(name)
			reg := t.reg(name)
			g := sweep.NewGrid().
				Axis("loss", "0", "0.02").
				Axis("failover", "hold", "reroute").
				Axis("transfers", "1", "4")
			dst[i] = g.Expand(b.seed, b.replicas, func(pt sweep.Point, _ int, seed int64) sweep.RunFunc {
				// The axis values above all parse.
				loss, _ := strconv.ParseFloat(pt.Get("loss"), 64)
				failover, _ := chunknet.ParseFailoverMode(pt.Get("failover"))
				transfers, _ := strconv.Atoi(pt.Get("transfers"))
				return sweep.ChunkSpec{
					Transport:    transport,
					IngressRate:  800 * units.Mbps,
					EgressRate:   units.Gbps,
					ChunkSize:    100 * units.KB,
					Anticipation: 64,
					Custody:      32 * units.MB,
					Buffer:       2 * units.MB,
					Transfers:    transfers,
					Chunks:       100,
					StartSpread:  50 * time.Millisecond,
					Horizon:      2 * time.Second,
					Ti:           10 * time.Millisecond,
					Outage: topo.OutageSpec{Kind: topo.OutageExp,
						Up: 150 * time.Millisecond, Down: 30 * time.Millisecond},
					Loss:       loss,
					DetourRate: 500 * units.Mbps,
					Failover:   failover,
					Obs:        reg,
				}.Run(seed)
			})
		}
		return nil
	})
	return err
}

func (b *grid) prepare(*tracer) error { return nil }

func (b *grid) pass(t *tracer, workers int, c *checks) (passOut, error) {
	scen := b.scen
	if t != nil {
		scen = b.traced
	}
	var (
		walls          [2]time.Duration
		work           [2]float64
		tables         [2]string
		jsons          [2][]byte
		busyNs, wallNs float64
	)
	for i, name := range gridSides {
		acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scen[i])
		r := sweep.Runner{Workers: workers, Obs: t.reg(name)}
		if t != nil {
			// Accumulate keeps only failed results; the traced pass
			// collects every result as it finishes for the per-scenario
			// metrics.
			b.results[i] = b.results[i][:0]
			r.Progress = func(_, _ int, res sweep.Result) { b.results[i] = append(b.results[i], res) }
		}
		start := time.Now()
		var failed []sweep.Result
		d, err := t.time("sweep.accumulate_s."+name, func() (err error) {
			failed, err = r.Accumulate(context.Background(), scen[i], acc)
			return err
		})
		if err != nil {
			return passOut{}, fmt.Errorf("sweep %s: %w", name, err)
		}
		checkGrid(c, name, len(scen[i]), failed)
		if _, err := t.time("sweep.aggregate_s", func() error {
			aggs, err := acc.Aggregates()
			if err != nil {
				return err
			}
			for _, a := range aggs {
				work[i] += float64(a.Replicas)
			}
			tables[i] = sweep.Table("failure-grid "+name, aggs).String()
			var buf bytes.Buffer
			if err := sweep.JSON(&buf, aggs); err != nil {
				return err
			}
			jsons[i] = buf.Bytes()
			return nil
		}); err != nil {
			return passOut{}, fmt.Errorf("aggregate %s: %w", name, err)
		}
		walls[i] = time.Since(start)
		if t != nil {
			busy := t.delta(name, "sweep_busy_ns")
			busyNs += busy
			wallNs += float64(d.Nanoseconds())
			if fired := t.delta(name, "des_events_fired"); fired > 0 {
				t.count("des.ns_per_event."+name, busy/fired)
			}
		}
	}
	if t != nil {
		t.count("sweep.busy_share", busyNs/(wallNs*float64(workers)))
		gridCounts(t, b.results)
	}
	return passOut{
		pooled:   side{walls[0], work[0]},
		baseline: side{walls[1], work[1]},
		digest: digest(func(h hash.Hash) {
			for i := range tables {
				h.Write([]byte(tables[i]))
				h.Write(jsons[i])
			}
		}),
	}, nil
}

// checkGrid checks one grid run: no scenario errored. failed holds the
// results Runner.Accumulate returns, those that ran and failed.
func checkGrid(c *checks, name string, scenarios int, failed []sweep.Result) {
	msg := ""
	if len(failed) > 0 {
		msg = fmt.Sprint(" (first ", failed[0].Name, ": ", failed[0].Err, ")")
	}
	c.expect(len(failed) == 0, "%s grid: %d of %d scenarios errored%s",
		name, len(failed), scenarios, msg)
}

// gridCounts records the traced pass's sweep, DES, chunk-level, custody
// and back-pressure counts.
func gridCounts(t *tracer, results [2][]sweep.Result) {
	chunknetCounts(t, gridSides[:])
	var (
		ms                []float64
		peak, res, closed float64
		inrppN            int
	)
	for i, rs := range results {
		for _, r := range rs {
			ms = append(ms, float64(r.Elapsed.Nanoseconds())/1e6)
			if i == 0 && r.Err == nil {
				v := r.Metrics.Values
				peak = max(peak, v["custody_peak_bytes"]/1e6)
				res += v["residency_mean_s"]
				closed += v["closed_loop"]
				inrppN++
			}
		}
	}
	t.count("sweep.scenario_ms.p50", stats.Percentile(ms, 50))
	t.count("sweep.scenario_ms.p99", stats.Percentile(ms, 99))
	t.count("sweep.scenarios_failed",
		t.delta("inrpp", "sweep_scenarios_failed")+t.delta("aimd", "sweep_scenarios_failed"))
	t.count("cache.custody_peak_mb", peak)
	if inrppN > 0 {
		t.count("cache.residency_mean_s", res/float64(inrppN))
	}
	t.count("core.closed_loop_entries", closed)
}

// digest hashes what write feeds it.
func digest(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
