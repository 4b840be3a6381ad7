package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildSweep compiles the sweep binary once per test into a temp dir.
func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// chunkGridArgs is a chunk grid sized so each scenario runs long enough
// (~0.5s wall) for a SIGKILL to land mid-sweep, but the whole test stays
// in seconds.
func chunkGridArgs(workers string) []string {
	return []string{
		"-mode", "chunk",
		"-transports", "inrpp,aimd,arc",
		"-anticipations", "1024",
		"-custody", "100MB",
		"-transfers", "2",
		"-ingress", "2Gbps", "-egress", "1Gbps",
		"-chunksize", "10KB", "-chunks", "100000",
		"-buffer", "2MB",
		"-horizon", "10s",
		"-replicas", "3",
		"-seed", "7",
		"-workers", workers,
	}
}

// runSweep executes the binary and returns stdout, failing the test on a
// non-zero exit.
func runSweep(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr:\n%s", bin, strings.Join(args, " "), err, errb.String())
	}
	return out.String(), errb.String()
}

// killAfterProgress starts the sweep and SIGKILLs the process as soon as
// its first progress line appears — a scenario has completed and been
// checkpointed, and the rest of the sweep is in flight.
func killAfterProgress(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	killed := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "[") {
			if err := cmd.Process.Kill(); err != nil { // SIGKILL, no cleanup
				t.Fatal(err)
			}
			killed = true
			break
		}
	}
	if !killed {
		t.Fatal("sweep exited before any progress line; cannot exercise kill/resume")
	}
	cmd.Wait() //nolint:errcheck — killed on purpose
}

var restoredRE = regexp.MustCompile(`restored (\d+)/(\d+) scenarios`)

// TestChunkSweepKillResume is the end-to-end checkpoint guarantee: a
// chunknet grid sweep killed mid-run with SIGKILL, then resumed with
// -resume, yields byte-identical table/CSV/JSON output to an
// uninterrupted run — at worker counts different from the killed run's.
func TestChunkSweepKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process kill/resume run")
	}
	bin := buildSweep(t)

	// Golden, uninterrupted run (checkpointed so the CSV/JSON renderings
	// below can come from a pure restore instead of re-simulating).
	goldenDir := t.TempDir()
	goldenCP := filepath.Join(goldenDir, "golden.jsonl")
	golden, _ := runSweep(t, bin, append(chunkGridArgs("2"), "-checkpoint", goldenCP)...)
	goldenCSV, _ := runSweep(t, bin, append(chunkGridArgs("2"),
		"-checkpoint", goldenCP, "-resume", "-q", "-format", "csv")...)
	goldenJSON, _ := runSweep(t, bin, append(chunkGridArgs("2"),
		"-checkpoint", goldenCP, "-resume", "-q", "-format", "json")...)

	for _, workers := range []string{"1", "4"} {
		cp := filepath.Join(t.TempDir(), "sweep.jsonl")

		killAfterProgress(t, bin, append(chunkGridArgs(workers), "-checkpoint", cp)...)

		out, errOut := runSweep(t, bin, append(chunkGridArgs(workers), "-checkpoint", cp, "-resume")...)
		m := restoredRE.FindStringSubmatch(errOut)
		if m == nil {
			t.Fatalf("workers=%s: no restore banner in stderr:\n%s", workers, errOut)
		}
		n, _ := strconv.Atoi(m[1])
		total, _ := strconv.Atoi(m[2])
		if n < 1 || n >= total {
			t.Errorf("workers=%s: restored %d/%d; kill did not land mid-sweep", workers, n, total)
		}
		if out != golden {
			t.Errorf("workers=%s: resumed table differs from uninterrupted run:\n%s\n--- vs ---\n%s",
				workers, out, golden)
		}

		// The sweep is now complete on disk; every format must match the
		// golden rendering byte for byte.
		if csv, _ := runSweep(t, bin, append(chunkGridArgs(workers),
			"-checkpoint", cp, "-resume", "-q", "-format", "csv")...); csv != goldenCSV {
			t.Errorf("workers=%s: resumed CSV differs", workers)
		}
		if js, _ := runSweep(t, bin, append(chunkGridArgs(workers),
			"-checkpoint", cp, "-resume", "-q", "-format", "json")...); js != goldenJSON {
			t.Errorf("workers=%s: resumed JSON differs", workers)
		}
	}
}

// TestFlowSweepCheckpointResume covers the flow grid on the same flags: a
// cancelled-then-resumed checkpoint file reproduces the uninterrupted
// output.
func TestFlowSweepCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	args := []string{
		"-isps", "VSNL (IN)",
		"-policies", "sp,inrp",
		"-flows", "30",
		"-capacity", "100Mbps", "-demand", "50Mbps", "-size", "20MB",
		"-horizon", "4s",
		"-replicas", "2",
		"-seed", "1",
		"-workers", "2",
		"-q",
	}
	golden, _ := runSweep(t, bin, args...)

	cp := filepath.Join(t.TempDir(), "flow.jsonl")
	full, _ := runSweep(t, bin, append(args, "-checkpoint", cp)...)
	if full != golden {
		t.Error("checkpointed run differs from plain run")
	}
	resumed, errOut := runSweep(t, bin, append(args, "-checkpoint", cp, "-resume")...)
	if resumed != golden {
		t.Errorf("resumed run differs from plain run:\n%s\n--- vs ---\n%s", resumed, golden)
	}
	if !strings.Contains(errOut, "restored 4/4") {
		t.Errorf("expected full restore, stderr:\n%s", errOut)
	}
}

// TestSweepAggModes is the end-to-end aggregation-mode guarantee: table,
// CSV and JSON output is byte-identical between -agg exact, -agg sketch
// and an -agg auto run forced over its sample budget — the rendered
// mean±std come from streamed summaries that fold identically in every
// representation.
func TestSweepAggModes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	for _, format := range []string{"table", "csv", "json"} {
		args := []string{
			"-isps", "VSNL (IN)",
			"-policies", "sp,inrp",
			"-flows", "30",
			"-capacity", "100Mbps", "-demand", "50Mbps", "-size", "20MB",
			"-horizon", "2s",
			"-replicas", "2",
			"-seed", "1",
			"-workers", "2",
			"-format", format,
			"-q",
		}
		exact, _ := runSweep(t, bin, append(args, "-agg", "exact")...)
		sketch, _ := runSweep(t, bin, append(args, "-agg", "sketch")...)
		cutover, _ := runSweep(t, bin, append(args, "-agg", "auto", "-agg-budget", "1")...)
		if sketch != exact {
			t.Errorf("%s: -agg sketch differs from -agg exact:\n%s\n--- vs ---\n%s", format, sketch, exact)
		}
		if cutover != exact {
			t.Errorf("%s: -agg auto past its budget differs from -agg exact:\n%s\n--- vs ---\n%s", format, cutover, exact)
		}
	}
}

// shardGridArgs is a chunk grid for the distributed e2e: 8 scenarios of
// ~0.4s each, so a SIGKILL lands mid-shard with -workers 1 but the whole
// test stays in seconds.
func shardGridArgs() []string {
	return []string{
		"-mode", "chunk",
		"-transports", "inrpp,aimd",
		"-anticipations", "512",
		"-custody", "50MB",
		"-transfers", "1,2",
		"-ingress", "2Gbps", "-egress", "1Gbps",
		"-chunksize", "10KB", "-chunks", "80000",
		"-buffer", "1MB",
		"-horizon", "8s",
		"-replicas", "2",
		"-seed", "11",
	}
}

// TestSweepShardMerge is the end-to-end distributed guarantee: a grid
// split into 3 shards — one of them SIGKILLed mid-run and resumed from
// its checkpoint — merges to table/CSV/JSON output byte-identical to an
// unsharded run, and -merge fails loudly on incomplete, overlapping and
// foreign shard sets.
func TestSweepShardMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process shard/merge run")
	}
	bin := buildSweep(t)
	dir := t.TempDir()

	// Golden, unsharded run (checkpointed so CSV/JSON render from a pure
	// restore instead of re-simulating).
	goldenCP := filepath.Join(dir, "golden.jsonl")
	golden, _ := runSweep(t, bin, append(shardGridArgs(), "-q", "-checkpoint", goldenCP)...)
	goldenCSV, _ := runSweep(t, bin, append(shardGridArgs(),
		"-q", "-checkpoint", goldenCP, "-resume", "-format", "csv")...)
	goldenJSON, _ := runSweep(t, bin, append(shardGridArgs(),
		"-q", "-checkpoint", goldenCP, "-resume", "-format", "json")...)

	// Three "hosts", one shard each. Host 0 is SIGKILLed mid-shard and
	// resumed from its checkpoint, like a real pre-empted machine.
	shardCPs := make([]string, 3)
	for i := range shardCPs {
		shardCPs[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		shardArgs := append(shardGridArgs(), "-shard", fmt.Sprintf("%d/3", i), "-checkpoint", shardCPs[i])
		if i == 0 {
			killAfterProgress(t, bin, append(shardArgs, "-workers", "1")...)
			_, errOut := runSweep(t, bin, append(shardArgs, "-resume")...)
			m := restoredRE.FindStringSubmatch(errOut)
			if m == nil {
				t.Fatalf("shard 0 resume printed no restore banner:\n%s", errOut)
			}
			if n, _ := strconv.Atoi(m[1]); n < 1 {
				t.Errorf("shard 0 resume restored %s scenarios; kill landed before any checkpoint", m[1])
			}
			continue
		}
		runSweep(t, bin, append(shardArgs, "-q")...)
	}

	// Merge must reproduce the unsharded bytes in every format.
	mergeArg := strings.Join(shardCPs, ",")
	if out, _ := runSweep(t, bin, append(shardGridArgs(), "-q", "-merge", mergeArg)...); out != golden {
		t.Errorf("merged table differs from unsharded run:\n%s\n--- vs ---\n%s", out, golden)
	}
	if out, _ := runSweep(t, bin, append(shardGridArgs(),
		"-q", "-merge", mergeArg, "-format", "csv")...); out != goldenCSV {
		t.Error("merged CSV differs from unsharded run")
	}
	if out, _ := runSweep(t, bin, append(shardGridArgs(),
		"-q", "-merge", mergeArg, "-format", "json")...); out != goldenJSON {
		t.Error("merged JSON differs from unsharded run")
	}

	// Failure modes must be loud and fast: incomplete (missing shard,
	// named scenarios), overlapping (duplicated shard), foreign (wrong
	// master seed), and invalid flag combinations.
	mustFail := func(wantSubstr string, args ...string) {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%s: expected failure, got success:\n%s", strings.Join(args, " "), out)
		}
		if !strings.Contains(string(out), wantSubstr) {
			t.Errorf("%s: output missing %q:\n%s", strings.Join(args, " "), wantSubstr, out)
		}
	}
	mustFail("missing", append(shardGridArgs(), "-q", "-merge", shardCPs[0]+","+shardCPs[1])...)
	mustFail("overlap", append(shardGridArgs(), "-q", "-merge", mergeArg+","+shardCPs[0])...)
	foreign := append(shardGridArgs()[:len(shardGridArgs())-1], "12") // -seed 12
	mustFail("seed", append(foreign, "-q", "-merge", mergeArg)...)
	mustFail("out of range", append(shardGridArgs(), "-q", "-shard", "3/3")...)
	mustFail("cannot be combined", append(shardGridArgs(), "-q", "-merge", mergeArg, "-shard", "0/3")...)
}

// TestSweepBadEntriesFailAtParse: a grid entry no scenario can run — a
// non-positive flow count, a negative count or window, an empty axis —
// must stop the sweep at flag parse with an error naming its flag, never
// reach the simulators (where -flows 0 panicked every scenario) or exit 0
// with an empty or all-zero table.
func TestSweepBadEntriesFailAtParse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	flow := []string{"-isps", "VSNL (IN)", "-flows", "10", "-replicas", "1", "-horizon", "1s", "-q"}
	chunk := []string{"-mode", "chunk", "-chunks", "10", "-replicas", "1", "-horizon", "1s", "-q"}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-flows", append(flow, "-flows", "0")},
		{"-flows", append(flow, "-flows", "60,-5")},
		{"-isps", append(flow, "-isps", "")},
		{"-policies", append(flow, "-policies", ",")},
		{"-transfers", append(chunk, "-transfers", "-2")},
		{"-chunks", append(chunk, "-chunks", "-1")},
		{"-anticipations", append(chunk, "-anticipations", "-1")},
		{"-transports", append(chunk, "-transports", "")},
		{"-custody", append(chunk, "-custody", "")},
		{"-outage-up", append(chunk, "-outage-kind", "exp", "-outage-up", "")},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: exited 0, want a flag error\n%s", tc.args, out)
			continue
		}
		if bytes.Contains(out, []byte("panicked")) {
			t.Errorf("%v: reached the simulators:\n%s", tc.args, out)
		}
		if !bytes.Contains(out, []byte(tc.flag)) {
			t.Errorf("%v: error does not name %s:\n%s", tc.args, tc.flag, out)
		}
	}
}

// TestSweepResumeRequiresCheckpoint: -resume without -checkpoint must
// fail fast, before any simulation work.
func TestSweepResumeRequiresCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	start := time.Now()
	out, err := exec.Command(bin, append(chunkGridArgs("1"), "-resume")...).CombinedOutput()
	if err == nil {
		t.Fatal("-resume without -checkpoint should fail")
	}
	if !bytes.Contains(out, []byte("-resume requires -checkpoint")) {
		t.Errorf("unexpected failure output: %s", out)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("-resume validation ran the sweep before failing")
	}
}

// obsGridArgs is a small flow grid every observability e2e shares: fast
// (sub-second per scenario) but real enough that all layer counters move.
func obsGridArgs(extra ...string) []string {
	base := []string{
		"-isps", "VSNL (IN)",
		"-policies", "sp,inrp",
		"-flows", "30",
		"-capacity", "100Mbps", "-demand", "50Mbps", "-size", "20MB",
		"-horizon", "2s",
		"-replicas", "1",
		"-seed", "1",
		"-workers", "1",
	}
	return append(base, extra...)
}

// TestSweepMetricsEndpoint boots a sweep with -metrics on an ephemeral
// port, scrapes both exposures while the endpoint lingers, and asserts
// well-formed Prometheus text and JSON with live counter values.
func TestSweepMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	cmd := exec.Command(bin, obsGridArgs("-q", "-metrics", "127.0.0.1:0", "-metrics-linger", "30s")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill() //nolint:errcheck — lingering on purpose
		cmd.Wait()         //nolint:errcheck
	}()

	// The address line is the first thing printed; the linger banner
	// marks the sweep done, so every counter below has its final value.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if m := metricsAddrRE.FindStringSubmatch(line); m != nil {
			addr = m[1]
		}
		if strings.Contains(line, "serving final snapshot") {
			break
		}
	}
	if addr == "" {
		t.Fatal("no metrics address line on stderr")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	prom := get("/metrics")
	for _, want := range []string{
		"# TYPE sweep_scenarios_completed counter",
		"sweep_scenarios_completed 2",
		"flowsim_flows_admitted",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	var snap struct {
		Registry string           `json:"registry"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot is not JSON: %v", err)
	}
	if snap.Registry != "sweep" {
		t.Errorf("snapshot registry = %q, want sweep", snap.Registry)
	}
	if snap.Counters["sweep_scenarios_completed"] != 2 {
		t.Errorf("snapshot completed = %d, want 2", snap.Counters["sweep_scenarios_completed"])
	}
}

var metricsAddrRE = regexp.MustCompile(`metrics listening on (http://[^\s]+)`)

// TestSweepSimTrace runs a sweep with -trace and checks the JSONL event
// stream: every line parses, carries a scenario label and an event kind,
// and both admit and finish events appear.
func TestSweepSimTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	runSweep(t, bin, obsGridArgs("-q", "-trace", path, "-trace-sample", "2")...)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var ev struct {
			Scenario string  `json:"scenario"`
			T        float64 `json:"t"`
			Event    string  `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Scenario == "" || ev.Event == "" {
			t.Fatalf("trace line missing scenario or event: %q", line)
		}
		kinds[ev.Event]++
	}
	for _, want := range []string{"flow_admit", "flow_finish"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %s events (kinds: %v)", want, kinds)
		}
	}
}

// TestSweepExecTrace checks the runtime execution trace is written and
// flushed on the normal exit path.
func TestSweepExecTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	path := filepath.Join(t.TempDir(), "exec.trace")
	runSweep(t, bin, obsGridArgs("-q", "-exectrace", path)...)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("execution trace file is empty")
	}
}

// TestSweepCheckpointObs: -checkpoint-obs embeds per-scenario summaries,
// the file still resumes, and the default leaves records untouched.
func TestSweepCheckpointObs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	dir := t.TempDir()

	plain := filepath.Join(dir, "plain.jsonl")
	runSweep(t, bin, obsGridArgs("-q", "-checkpoint", plain)...)
	if data, _ := os.ReadFile(plain); bytes.Contains(data, []byte(`"obs"`)) {
		t.Error("default checkpoint contains obs fields")
	}

	withObs := filepath.Join(dir, "obs.jsonl")
	golden, _ := runSweep(t, bin, obsGridArgs("-q", "-checkpoint", withObs, "-checkpoint-obs")...)
	data, err := os.ReadFile(withObs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"elapsed_ms"`)) {
		t.Errorf("-checkpoint-obs wrote no obs summaries:\n%s", data)
	}
	resumed, errOut := runSweep(t, bin, obsGridArgs("-q", "-checkpoint", withObs, "-resume")...)
	if resumed != golden {
		t.Error("resume from an obs-annotated checkpoint differs from its own run")
	}
	if !strings.Contains(errOut, "restored 2/2") {
		t.Errorf("expected full restore from obs checkpoint, stderr:\n%s", errOut)
	}
}

// TestSweepProgressTicker runs a multi-second sweep with a fast ticker
// and expects periodic done/total lines on stderr; -q must silence them.
func TestSweepProgressTicker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	args := []string{
		"-mode", "chunk",
		"-transports", "inrpp,aimd",
		"-anticipations", "512",
		"-custody", "50MB",
		"-transfers", "2",
		"-ingress", "2Gbps", "-egress", "1Gbps",
		"-chunksize", "10KB", "-chunks", "50000",
		"-buffer", "1MB",
		"-horizon", "8s",
		"-replicas", "1",
		"-seed", "7",
		"-workers", "1",
	}
	_, errOut := runSweep(t, bin, append(args, "-progress-every", "100ms")...)
	if !tickerRE.MatchString(errOut) {
		t.Errorf("no progress ticker line on stderr:\n%s", errOut)
	}
	_, quietOut := runSweep(t, bin, append(args, "-progress-every", "100ms", "-q")...)
	if tickerRE.MatchString(quietOut) {
		t.Errorf("-q did not silence the ticker:\n%s", quietOut)
	}
}

var tickerRE = regexp.MustCompile(`sweep: \d+/\d+ scenarios`)
