package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// perLayer lists every per-layer metric of the traced run, with its unit.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []struct{ name, unit string }{
	{"topo.build_s", "s"},
	{"workload.generate_s", "s"},
	{"flowsim.run_s.inrp", "s"},
	{"flowsim.run_s.sp", "s"},
	{"flowsim.alloc_fills.inrp", "count"},
	{"flowsim.alloc_fills.sp", "count"},
	{"flowsim.ns_per_fill.inrp", "ns"},
	{"flowsim.ns_per_fill.sp", "ns"},
	{"flowsim.backpressure_events", "count"},
	{"flowsim.alloc_mb.inrp", "MB"},
	{"flowsim.alloc_mb.sp", "MB"},
	{"des.events_fired", "count"},
	{"des.events_scheduled", "count"},
	{"des.ns_per_event.inrpp", "ns"},
	{"des.ns_per_event.aimd", "ns"},
	{"des.heap_depth_max", "count"},
	{"chunknet.new_s", "s"},
	{"chunknet.run_s.inrpp", "s"},
	{"chunknet.run_s.aimd", "s"},
	{"chunknet.chunks_sent", "count"},
	{"chunknet.delivered_per_sent", "ratio"},
	{"chunknet.retransmits", "count"},
	{"chunknet.dropped", "count"},
	{"chunknet.rto_fires", "count"},
	{"chunknet.pkts_lost_random", "count"},
	{"chunknet.evacuated", "count"},
	{"chunknet.requeued", "count"},
	{"cache.custody_peak_mb", "MB"},
	{"cache.residency_mean_s", "s"},
	{"core.backpressure_on", "count"},
	{"core.closed_loop_entries", "count"},
	{"sweep.expand_s", "s"},
	{"sweep.accumulate_s.inrpp", "s"},
	{"sweep.accumulate_s.aimd", "s"},
	{"sweep.busy_share", "ratio"},
	{"sweep.scenario_ms.p50", "ms"},
	{"sweep.scenario_ms.p99", "ms"},
	{"sweep.aggregate_s", "s"},
	{"sweep.scenarios_failed", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"obs.overhead_pct", "%"},
	{"share.topo", "%"},
	{"share.workload", "%"},
	{"share.route", "%"},
	{"share.flowsim", "%"},
	{"share.core", "%"},
	{"share.des", "%"},
	{"share.chunknet", "%"},
	{"share.cache", "%"},
	{"share.sweep", "%"},
	{"share.stats", "%"},
	{"share.report", "%"},
	{"share.obs", "%"},
	{"share.units", "%"},
	{"share.runtime", "%"},
	{"share.other", "%"},
}

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Root spans (Parent -1) are the set-up
// builds, the per-pass preparations and the passes themselves.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-pass counts in memory for the traced run.
// Every method is a no-op on a nil tracer, which is how the untraced
// passes run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs

	// regs holds one obs registry per side; before holds their counters
	// at the start of the current pass.
	regs   map[string]*obs.Registry
	before map[string]map[string]int64

	// counts holds one value per traced pass for each per-layer count.
	counts map[string][]float64

	// heapMax is the deepest DES heap seen by the poller during passes.
	heapMax  int64
	stopPoll chan struct{}
	polled   sync.WaitGroup
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		regs:   map[string]*obs.Registry{},
		counts: map[string][]float64{},
	}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0)), End: -1})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// time runs f inside a span called name and returns f's wall time, which
// callers use whether or not tracing is on.
func (t *tracer) time(name string, f func() error) (time.Duration, error) {
	id := t.begin(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// reg returns the side's registry, or nil (observability off) when not
// tracing.
func (t *tracer) reg(side string) *obs.Registry {
	if t == nil {
		return nil
	}
	r, ok := t.regs[side]
	if !ok {
		r = obs.New(side)
		t.regs[side] = r
	}
	return r
}

// count records one traced pass's value of a per-layer count.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] = append(t.counts[name], v)
}

// delta returns how much the side's counter grew during the current pass.
func (t *tracer) delta(side, counter string) float64 {
	if t == nil {
		return 0
	}
	return float64(t.regs[side].Snapshot().Counters[counter] - t.before[side][counter])
}

// beginPass opens the pass's root span, snapshots every registry's
// counters and starts polling the DES heap-depth gauges (the registries
// expose the current depth only, so the maximum is sampled).
func (t *tracer) beginPass() {
	if t == nil {
		return
	}
	t.begin("pass")
	t.before = map[string]map[string]int64{}
	var gauges []*obs.Gauge
	for side, r := range t.regs {
		t.before[side] = r.Snapshot().Counters
		gauges = append(gauges, r.Gauge("des_heap_depth"))
	}
	t.stopPoll = make(chan struct{})
	t.polled.Add(1)
	go func() {
		defer t.polled.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopPoll:
				return
			case <-tick.C:
				for _, g := range gauges {
					if v := g.Value(); v > t.heapMax {
						t.heapMax = v
					}
				}
			}
		}
	}()
}

// endPass stops the poller and closes the pass span.
func (t *tracer) endPass() {
	if t == nil {
		return
	}
	close(t.stopPoll)
	t.polled.Wait()
	t.end(t.open[len(t.open)-1])
}

// layerMetrics derives the per-layer values: span-timed metrics are the
// median over root spans of the per-root summed duration of the spans
// named after them; counts are the median over traced passes.
func (t *tracer) layerMetrics() map[string]float64 {
	out := map[string]float64{"des.heap_depth_max": float64(t.heapMax)}
	root := make([]int, len(t.spans)) // root span of each span
	perRoot := map[string]map[int]float64{}
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		if s.Parent < 0 {
			continue
		}
		if perRoot[s.Name] == nil {
			perRoot[s.Name] = map[int]float64{}
		}
		perRoot[s.Name][root[i]] += time.Duration(s.End - s.Start).Seconds()
	}
	for name, byRoot := range perRoot {
		xs := make([]float64, 0, len(byRoot))
		for _, v := range byRoot {
			xs = append(xs, v)
		}
		out[name] = median(xs)
	}
	for name, xs := range t.counts {
		out[name] = median(xs)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// sharePackages are the repro/internal packages reported as share.<pkg>;
// CPU time of any other internal package counts as other.
var sharePackages = map[string]bool{
	"topo": true, "workload": true, "route": true, "flowsim": true, "core": true,
	"des": true, "chunknet": true, "cache": true, "sweep": true, "stats": true,
	"report": true, "obs": true, "units": true,
}

// packageShares summarises a CPU profile with `go tool pprof -top` and
// groups self time by package: repro/internal/<pkg>, runtime (scheduler,
// GC and malloc, map internals included) and other. The shares are
// percentages that sum to 100.
func packageShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(goTool(), "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return sharesFromTop(out)
}

// sharesFromTop parses pprof -top text: after the header row, each line is
// "flat flat% sum% cum cum% function".
func sharesFromTop(top []byte) (map[string]float64, error) {
	groups := map[string]float64{}
	var total float64
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseDur(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		groups[pkgGroup(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("no samples in profile")
	}
	shares := map[string]float64{}
	for pkg := range sharePackages {
		shares["share."+pkg] = 0
	}
	shares["share.runtime"], shares["share.other"] = 0, 0
	for g, v := range groups {
		shares["share."+g] = 100 * v / total
	}
	return shares, nil
}

// pkgGroup maps a pprof function name to its share group.
func pkgGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if sharePackages[pkg] {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// parseDur parses a pprof duration such as "1.20s", "340ms" or "0".
func parseDur(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}

// goTool finds the go command: on PATH, else beside this program's GOROOT.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// environment records what a result was measured on.
func environment(o options) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
		"source":     sourceDigest(),
		"workload":   o.workload,
		"seed":       strconv.FormatInt(o.seed, 10),
		"seconds":    strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"trace":      strconv.FormatBool(o.trace),
		"toy":        strconv.FormatBool(o.toy),
	}
	if env["commit"] == "" {
		env["commit"] = "unknown"
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's go.mod and non-test Go sources under
// internal/, so a result names the code it measured even where no
// commit ID is available. The program runs from the repository root.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	files = append(files, "go.mod")
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") &&
			!strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
