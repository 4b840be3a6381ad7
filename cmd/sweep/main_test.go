package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chunknet"
	"repro/internal/flowsim"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
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
// chunknet grid sweep killed mid-run with SIGKILL, then rerun on the same
// -checkpoint file, yields byte-identical table/CSV/JSON output to an
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
		"-checkpoint", goldenCP, "-q", "-format", "csv")...)
	goldenJSON, _ := runSweep(t, bin, append(chunkGridArgs("2"),
		"-checkpoint", goldenCP, "-q", "-format", "json")...)

	for _, workers := range []string{"1", "4"} {
		cp := filepath.Join(t.TempDir(), "sweep.jsonl")

		killAfterProgress(t, bin, append(chunkGridArgs(workers), "-checkpoint", cp)...)

		out, errOut := runSweep(t, bin, append(chunkGridArgs(workers), "-checkpoint", cp)...)
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
			"-checkpoint", cp, "-q", "-format", "csv")...); csv != goldenCSV {
			t.Errorf("workers=%s: resumed CSV differs", workers)
		}
		if js, _ := runSweep(t, bin, append(chunkGridArgs(workers),
			"-checkpoint", cp, "-q", "-format", "json")...); js != goldenJSON {
			t.Errorf("workers=%s: resumed JSON differs", workers)
		}
	}
}

// TestFlowSweepCheckpointResume covers the flow grid on the same flags: a
// rerun on a complete checkpoint file restores every scenario, reproduces
// the uninterrupted output and appends nothing to the file.
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
	before, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	resumed, errOut := runSweep(t, bin, append(args, "-checkpoint", cp)...)
	if resumed != golden {
		t.Errorf("resumed run differs from plain run:\n%s\n--- vs ---\n%s", resumed, golden)
	}
	if !strings.Contains(errOut, "restored 4/4") {
		t.Errorf("expected full restore, stderr:\n%s", errOut)
	}
	if after, err := os.ReadFile(cp); err != nil || !bytes.Equal(after, before) {
		t.Errorf("rerun on a complete checkpoint changed the file (err %v): re-ran scenarios", err)
	}
}

// TestOneCellParity pins the single-run recipes: a one-cell flow grid
// (-policies inrp) and a one-cell chunk grid (-transports arc) at
// -replicas 1 print exactly the metrics of one FlowSpec/ChunkSpec run at
// the cell's derived seed.
func TestOneCellParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	for _, tc := range []struct {
		name string
		args []string
		run  func(seed int64) (sweep.Metrics, error)
	}{
		{"flow", []string{"-isps", "VSNL (IN)", "-policies", "inrp", "-flows", "30",
			"-capacity", "100Mbps", "-demand", "50Mbps", "-size", "20MB", "-horizon", "2s"},
			func(seed int64) (sweep.Metrics, error) {
				r, err := sweep.FlowSpec{
					ISP: topo.VSNL, Capacity: 100 * units.Mbps, Policy: flowsim.INRP, Flows: 30,
					MeanSize: 20 * units.MB, DemandCap: 50 * units.Mbps, Horizon: 2 * time.Second,
				}.Simulate(seed)
				if err != nil {
					return sweep.Metrics{}, err
				}
				return sweep.FlowMetrics(r), nil
			}},
		{"chunk", []string{"-mode", "chunk", "-transports", "arc", "-transfers", "2",
			"-ingress", "1Gbps", "-egress", "200Mbps", "-chunksize", "100KB", "-chunks", "300",
			"-buffer", "2MB", "-horizon", "2s"},
			func(seed int64) (sweep.Metrics, error) {
				// Every field the chunk grid's flag defaults set, spelled out.
				spec := sweep.ChunkSpec{
					Transport: chunknet.ARC, IngressRate: units.Gbps, EgressRate: 200 * units.Mbps,
					ChunkSize: 100 * units.KB, Anticipation: 4096, Custody: 10 * units.GB,
					Buffer: 2 * units.MB, Transfers: 2, Chunks: 300, Horizon: 2 * time.Second,
				}
				rep, err := spec.Simulate(seed)
				if err != nil {
					return sweep.Metrics{}, err
				}
				return sweep.ChunkMetrics(rep, spec), nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tc.args, "-replicas", "1", "-seed", "5")
			scenarios, _, err := parseGrid(t, args...)
			if err != nil || len(scenarios) != 1 {
				t.Fatalf("grid: %d scenarios, err %v; want one cell", len(scenarios), err)
			}
			want, err := tc.run(scenarios[0].Seed)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := runSweep(t, bin, append(args, "-q", "-format", "json")...)
			var aggs []struct {
				Replicas int                `json:"replicas"`
				Mean     map[string]float64 `json:"mean"`
				Std      map[string]float64 `json:"std"`
			}
			if err := json.Unmarshal([]byte(out), &aggs); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if len(aggs) != 1 || aggs[0].Replicas != 1 {
				t.Fatalf("want one cell with one replica, got:\n%s", out)
			}
			if len(aggs[0].Mean) != len(want.Values) {
				t.Errorf("printed %d metrics, direct run has %d:\n%s", len(aggs[0].Mean), len(want.Values), out)
			}
			for name, v := range want.Values {
				got, ok := aggs[0].Mean[name]
				if !ok || got != v || aggs[0].Std[name] != 0 {
					t.Errorf("%s: printed %v (present %v, std %v), direct run %v", name, got, ok, aggs[0].Std[name], v)
				}
			}
		})
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
		"-q", "-checkpoint", goldenCP, "-format", "csv")...)
	goldenJSON, _ := runSweep(t, bin, append(shardGridArgs(),
		"-q", "-checkpoint", goldenCP, "-format", "json")...)

	// Three "hosts", one shard each. Host 0 is SIGKILLed mid-shard and
	// resumed from its checkpoint, like a real pre-empted machine.
	shardCPs := make([]string, 3)
	for i := range shardCPs {
		shardCPs[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		shardArgs := append(shardGridArgs(), "-shard", fmt.Sprintf("%d/3", i), "-checkpoint", shardCPs[i])
		if i == 0 {
			killAfterProgress(t, bin, append(shardArgs, "-workers", "1")...)
			_, errOut := runSweep(t, bin, shardArgs...)
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

// TestSweepServiceChaos keeps the name of the sweep-service chaos run it
// replaces and checks the same promise on the path that stays: a shard
// host that crashes repeatedly is recovered by rerunning its own command.
// Shard 0 of 2 is SIGKILLed twice mid-run, then its checkpoint gets a
// torn final line as from a kill mid-write. Until the shard is rerun,
// -merge must fail as incomplete (not on the torn line, and never with
// partial output); the rerun, at another -workers count, restores what
// the two crashed runs recorded, and the merge then equals the unsharded
// run byte for byte.
func TestSweepServiceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process shard chaos run")
	}
	bin := buildSweep(t)
	dir := t.TempDir()

	golden, _ := runSweep(t, bin, append(shardGridArgs(), "-q")...)
	goldenJSON, _ := runSweep(t, bin, append(shardGridArgs(), "-q", "-format", "json")...)

	cps := []string{filepath.Join(dir, "shard0.jsonl"), filepath.Join(dir, "shard1.jsonl")}
	shardArgs := func(i int) []string {
		return append(shardGridArgs(), "-shard", fmt.Sprintf("%d/2", i), "-checkpoint", cps[i])
	}
	runSweep(t, bin, append(shardArgs(1), "-q")...)

	// Two crashes of shard 0, each after at least one more scenario is
	// on disk.
	killAfterProgress(t, bin, append(shardArgs(0), "-workers", "1")...)
	killAfterProgress(t, bin, append(shardArgs(0), "-workers", "1")...)

	// A kill mid-write leaves half a record with no newline.
	data, err := os.ReadFile(cps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	f, err := os.OpenFile(cps[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(last[:len(last)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mergeArgs := append(shardGridArgs(), "-q", "-merge", strings.Join(cps, ","))
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, mergeArgs...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err == nil {
		t.Fatalf("merge over a crashed shard exited 0:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "merge incomplete") {
		t.Errorf("merge over a crashed shard did not fail as incomplete:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("merge over a crashed shard printed partial output:\n%s", out.String())
	}

	// Recovery is the shard's own command, rerun.
	_, errOut := runSweep(t, bin, append(shardArgs(0), "-workers", "2")...)
	m := restoredRE.FindStringSubmatch(errOut)
	if m == nil {
		t.Fatalf("shard 0 rerun printed no restore banner:\n%s", errOut)
	}
	n, _ := strconv.Atoi(m[1])
	total, _ := strconv.Atoi(m[2])
	if n < 2 || n >= total {
		t.Errorf("shard 0 rerun restored %d/%d; want the two crashed runs' records and not the whole shard", n, total)
	}

	if got, _ := runSweep(t, bin, mergeArgs...); got != golden {
		t.Errorf("merge after recovery differs from unsharded run:\n%s\n--- vs ---\n%s", got, golden)
	}
	if got, _ := runSweep(t, bin, append(mergeArgs, "-format", "json")...); got != goldenJSON {
		t.Error("merged JSON after recovery differs from unsharded run")
	}
}

// TestSweepServiceFlagGuards: the sweep service and its flags were
// removed, so each flag it used, and each command line that started a
// coordinator or a worker, must now stop at flag parse with a non-zero
// exit, before any grid runs or anything listens. A script written for
// the service fails loudly instead of running some other sweep.
func TestSweepServiceFlagGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	bin := buildSweep(t)
	flow := []string{"-isps", "VSNL (IN)", "-flows", "10", "-replicas", "1", "-horizon", "1s", "-q"}
	cp := filepath.Join(t.TempDir(), "x.jsonl")
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"flag provided but not defined: -grid", append(flow, "-grid", "flow")},
		{"flag provided but not defined: -coordinator", append(flow, "-coordinator", "http://127.0.0.1:1")},
		{"flag provided but not defined: -batch", append(flow, "-batch", "4")},
		{"flag provided but not defined: -lease-ttl", append(flow, "-lease-ttl", "2s")},
		{"flag provided but not defined: -poll", append(flow, "-poll", "100ms")},
		{"flag provided but not defined: -patience", append(flow, "-patience", "60s")},
		{"flag provided but not defined: -worker-name", append(flow, "-worker-name", "w0")},
		// Whole coordinator and worker command lines.
		{"flag provided but not defined: -grid", append(append([]string{"-mode", "serve", "-grid", "chunk"},
			shardGridArgs()[2:]...), "-checkpoint", cp, "-listen", "127.0.0.1:0", "-batch", "1")},
		{"flag provided but not defined: -grid", append(append([]string{"-mode", "work", "-grid", "chunk"},
			shardGridArgs()[2:]...), "-coordinator", "http://127.0.0.1:1", "-worker-name", "w0")},
		{"unknown mode", append(append([]string{"-mode", "serve"}, shardGridArgs()[2:]...), "-checkpoint", cp)},
	} {
		// The timeout bounds a row that wrongly starts a run that waits.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
		cancel()
		if err == nil {
			t.Errorf("%v: exited 0, want a flag error\n%s", tc.args, out)
			continue
		}
		if !bytes.Contains(out, []byte(tc.want)) {
			t.Errorf("%v: error does not say %q:\n%s", tc.args, tc.want, out)
		}
		if bytes.Contains(out, []byte("Scenario sweep")) || bytes.Contains(out, []byte("listening")) {
			t.Errorf("%v: started a run before failing:\n%s", tc.args, out)
		}
	}
	if _, err := os.Stat(cp); !os.IsNotExist(err) {
		t.Errorf("a refused command line touched its checkpoint %s (stat: %v)", cp, err)
	}
}

// TestSweepBadEntriesFailAtParse: a grid entry no scenario can run — a
// non-positive flow count, a negative count, rate, size or duration, an
// unknown enum value, an empty axis, a failover or correlation without
// its detour — must stop the sweep at flag parse with an error naming its flag, never
// reach the simulators (where -flows 0 panicked every scenario) or exit 0
// with an empty or all-zero table. An unknown -format, -replicas below 1,
// a negative -workers, -progress-every or -metrics-linger, and
// -trace-sample below 1 fail the same way in the local and merge modes,
// before a grid runs, instead of running as some other value. So do
// -checkpoint-obs, -metrics-linger and -trace-sample without the
// -checkpoint, -metrics or -trace they qualify. A removed mode or flag
// fails the same way.
func TestSweepBadEntriesFailAtParse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep run")
	}
	bin := buildSweep(t)
	dir := t.TempDir()
	flow := []string{"-isps", "VSNL (IN)", "-flows", "10", "-replicas", "1", "-horizon", "1s", "-q"}
	chunk := []string{"-mode", "chunk", "-chunks", "10", "-replicas", "1", "-horizon", "1s", "-q"}
	// Clipped, so each row's append copies instead of sharing a tail.
	merge := slices.Clip(append(flow, "-merge", filepath.Join(dir, "absent.jsonl")))
	for _, tc := range []struct {
		want string // text the error must hold: the flag's name or, for a removed mode or flag, Go's message
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
		// Negative rates, sizes, durations and horizons, and loss outside
		// [0,1], are rejected by the specs' Validate at parse time.
		{"-capacity", append(flow, "-capacity", "-1Mbps")},
		{"-demand", append(flow, "-demand", "-5Mbps")},
		{"-size", append(flow, "-size", "-10MB")},
		{"-lambda", append(flow, "-lambda", "-3")},
		{"-horizon", append(flow, "-horizon", "-1s")},
		{"-horizon", append(chunk, "-horizon", "-1s")},
		{"-egress", append(chunk, "-egress", "-2Gbps")},
		{"-custody", append(chunk, "-custody", "-1GB")},
		{"-buffer", append(chunk, "-buffer", "-5MB")},
		{"-detour-rate", append(chunk, "-detour-rate", "-1Gbps")},
		{"-outage-up", append(chunk, "-outage-kind", "exp", "-outage-up", "-1s")},
		{"-loss", append(chunk, "-loss", "1.5")},
		{"-maintenance", append(chunk, "-maintenance", "2s-1s")},
		// Bad enum values name their flag too.
		{"-transports", append(chunk, "-transports", "foo")},
		{"-failover", append(chunk, "-failover", "bogus")},
		{"-policies", append(flow, "-policies", "sp,bogus")},
		{"-isps", append(flow, "-isps", "Nowhere")},
		// Cross-field rules: failover and correlation need a detour, and
		// correlation a failure process.
		{"-failover", append(chunk, "-failover", "hold,reroute")},
		{"-correlated", append(chunk, "-correlated", "true")},
		{"-correlated", append(chunk, "-detour-rate", "1Gbps", "-correlated", "true")},
		// Output and replica flags are checked before any mode starts.
		{"-format", append(flow, "-format", "xml")},
		{"-replicas", append(flow, "-replicas", "0")},
		{"-replicas", append(chunk, "-replicas", "-5")},
		{"-format", append(merge, "-format", "xml")},
		{"-replicas", append(merge, "-replicas", "-5")},
		// Count and period flags below their range would otherwise run as
		// GOMAXPROCS, 1 or 0.
		{"-workers", append(flow, "-workers", "-3")},
		{"-trace-sample", append(flow, "-trace-sample", "0")},
		{"-trace-sample", append(flow, "-trace-sample", "-2")},
		{"-progress-every", append(flow, "-progress-every", "-1s")},
		{"-metrics-linger", append(flow, "-metrics-linger", "-1s")},
		// A flag that only qualifies another is not ignored without it.
		{"-checkpoint-obs has no effect without -checkpoint", append(flow, "-checkpoint-obs")},
		{"-metrics-linger has no effect without -metrics", append(flow, "-metrics-linger", "5s")},
		{"-trace-sample has no effect without -trace", append(flow, "-trace-sample", "7")},
		{"-agg", append(flow, "-agg", "exact")}, // removed: the fold is always exact
		// Removed: the sweep service modes and their flags.
		{"unknown mode", append(flow, "-mode", "serve")},
		{"unknown mode", append(flow, "-mode", "work")},
		{"flag provided but not defined: -listen", append(flow, "-listen", ":0")},
	} {
		// The timeout bounds a row that wrongly starts a run that waits.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
		cancel()
		if err == nil {
			t.Errorf("%v: exited 0, want a flag error\n%s", tc.args, out)
			continue
		}
		if bytes.Contains(out, []byte("panicked")) {
			t.Errorf("%v: reached the simulators:\n%s", tc.args, out)
		}
		if bytes.Contains(out, []byte("Scenario sweep")) {
			t.Errorf("%v: ran the grid before failing:\n%s", tc.args, out)
		}
		if !bytes.Contains(out, []byte(tc.want)) {
			t.Errorf("%v: error does not say %q:\n%s", tc.args, tc.want, out)
		}
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
	resumed, errOut := runSweep(t, bin, obsGridArgs("-q", "-checkpoint", withObs)...)
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
