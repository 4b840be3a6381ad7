package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// serviceGridArgs is the chunk grid the sweep-service e2e runs: 8
// scenarios of ~0.5s each, long enough that SIGKILLs land mid-lease but
// short enough that the whole chaos sequence stays in seconds.
func serviceGridArgs() []string {
	return []string{
		"-transports", "inrpp,aimd",
		"-anticipations", "512",
		"-custody", "50MB",
		"-transfers", "1,2",
		"-ingress", "2Gbps", "-egress", "1Gbps",
		"-chunksize", "10KB", "-chunks", "100000",
		"-buffer", "1MB",
		"-horizon", "10s",
		"-replicas", "2",
		"-seed", "11",
	}
}

// proc wraps a started sweep process whose stderr is scanned line by
// line (to sequence the chaos) and whose stdout is collected whole.
type proc struct {
	t   *testing.T
	cmd *exec.Cmd
	out bytes.Buffer
	err bytes.Buffer
	sc  *bufio.Scanner
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, cmd: exec.Command(bin, args...)}
	p.cmd.Stdout = &p.out
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.sc = bufio.NewScanner(io.TeeReader(stderr, &p.err))
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill() //nolint:errcheck — may already be dead
		p.cmd.Wait()         //nolint:errcheck
	})
	return p
}

// waitLine scans stderr until a line matches re, returning the match.
// Lines already consumed by earlier waitLine calls are not re-examined —
// the test sequences events strictly forward.
func (p *proc) waitLine(re *regexp.Regexp) []string {
	p.t.Helper()
	for p.sc.Scan() {
		if m := re.FindStringSubmatch(p.sc.Text()); m != nil {
			return m
		}
	}
	p.t.Fatalf("process exited before stderr matched %v; stderr so far:\n%s", re, p.err.String())
	return nil
}

var (
	listeningRE = regexp.MustCompile(`coordinator listening on (http://[^\s]+)`)
	coordUpRE   = regexp.MustCompile(`coordinator up: (\d+) scenarios, (\d+) restored`)
	submitRE    = regexp.MustCompile(`sweepd: submit `)
	leaseW0RE   = regexp.MustCompile(`sweepd: lease \S+ -> worker w0 `)
	expiredRE   = regexp.MustCompile(`lease \S+ \(worker (w\d+)\) expired, (\d+) scenarios re-queued`)
	lingerRE    = regexp.MustCompile(`serving final state for`)
	promGaugeRE = regexp.MustCompile(`(?m)^(sweepd_leases_expired|sweepd_scenarios_requeued) (\d+)$`)
)

// TestSweepServiceChaos is the end-to-end pooling guarantee: a
// coordinator with three workers survives a SIGKILL+resume of the
// coordinator itself and a SIGKILL of one worker mid-lease, and still
// produces table/CSV/JSON bytes identical to a single-host run — with a
// nonzero re-lease counter on /metrics proving the stolen batch was the
// recovery path, not a lucky schedule.
func TestSweepServiceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos run")
	}
	bin := buildSweep(t)
	dir := t.TempDir()

	// Golden single-host run, checkpointed so the CSV/JSON renderings
	// come from a pure restore.
	goldenCP := filepath.Join(dir, "golden.jsonl")
	single := append([]string{"-mode", "chunk"}, serviceGridArgs()...)
	golden, _ := runSweep(t, bin, append(single, "-q", "-checkpoint", goldenCP)...)
	goldenCSV, _ := runSweep(t, bin, append(single, "-q", "-checkpoint", goldenCP, "-format", "csv")...)
	goldenJSON, _ := runSweep(t, bin, append(single, "-q", "-checkpoint", goldenCP, "-format", "json")...)

	coordCP := filepath.Join(dir, "coord.jsonl")
	serveArgs := func(listen string) []string {
		return append(append([]string{"-mode", "serve", "-grid", "chunk"}, serviceGridArgs()...),
			"-checkpoint", coordCP, "-listen", listen,
			"-batch", "1", "-lease-ttl", "2s", "-metrics-linger", "60s")
	}

	// Coordinator #1 on an ephemeral port.
	coord := startProc(t, bin, serveArgs("127.0.0.1:0")...)
	url := coord.waitLine(listeningRE)[1]
	addr := strings.TrimPrefix(url, "http://")

	// Worker 0, the designated victim, starts alone: any lease it dies
	// holding can then only complete through expiry + work stealing,
	// making the re-lease path deterministic rather than a race with
	// other workers' in-flight duplicates.
	startWorker := func(i int) *proc {
		return startProc(t, bin, append(append([]string{"-mode", "work", "-grid", "chunk"}, serviceGridArgs()...),
			"-coordinator", url, "-worker-name", fmt.Sprintf("w%d", i),
			"-workers", "1", "-poll", "100ms", "-patience", "60s")...)
	}
	w0 := startWorker(0)

	// Chaos 1: SIGKILL the coordinator after the first result lands, with
	// a lease in flight. The worker rides out the outage on its patience
	// budget.
	coord.waitLine(submitRE)
	if err := coord.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	coord.cmd.Wait() //nolint:errcheck — killed on purpose

	// Resume on the same address: the checkpoint must restore at least
	// the one submission we saw, and fewer than the whole grid. The
	// "coordinator up" banner prints before the bind, so bind success is
	// confirmed by the listening line (retried briefly: the killed
	// process's socket may still be closing).
	var coord2 *proc
	listenOrFail := regexp.MustCompile(listeningRE.String() + "|sweep: listen")
	for attempt := 0; ; attempt++ {
		coord2 = startProc(t, bin, serveArgs(addr)...)
		m := coord2.waitLine(coordUpRE)
		total, _ := strconv.Atoi(m[1])
		restored, _ := strconv.Atoi(m[2])
		if restored < 1 || restored >= total {
			t.Fatalf("resume restored %d/%d; coordinator kill did not land mid-sweep", restored, total)
		}
		if lm := coord2.waitLine(listenOrFail); strings.Contains(lm[0], "coordinator listening") {
			break
		}
		if attempt > 20 {
			t.Fatalf("could not rebind %s: %s", addr, coord2.err.String())
		}
		coord2.cmd.Wait() //nolint:errcheck — bind failed, retrying
		time.Sleep(250 * time.Millisecond)
	}

	// Chaos 2: SIGKILL worker 0 the moment the resumed coordinator
	// grants it a lease, then bring up the other two workers. w0's
	// batch is held by no one else, so the grid can only finish through
	// the lease expiring and a new worker stealing it — the expiry line
	// proves the kill landed mid-lease.
	coord2.waitLine(leaseW0RE)
	if err := w0.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w0.cmd.Wait() //nolint:errcheck — killed on purpose
	w1, w2 := startWorker(1), startWorker(2)
	if m := coord2.waitLine(expiredRE); m[1] != "w0" {
		t.Errorf("expired lease belonged to %s, want the killed w0", m[1])
	}

	// The grid still completes; the coordinator renders and lingers.
	coord2.waitLine(lingerRE)

	// The re-lease counters on /metrics must be nonzero, and /state and
	// /snapshot must serve the completed run.
	prom := httpGet(t, url+"/metrics")
	counts := map[string]int{}
	for _, m := range promGaugeRE.FindAllStringSubmatch(prom, -1) {
		counts[m[1]], _ = strconv.Atoi(m[2])
	}
	if counts["sweepd_leases_expired"] < 1 || counts["sweepd_scenarios_requeued"] < 1 {
		t.Errorf("re-lease counters not nonzero after worker kill: %v\n/metrics:\n%s", counts, prom)
	}
	state := httpGet(t, url+"/state")
	if !strings.Contains(state, `"complete":true`) {
		t.Errorf("/state does not report completion: %s", state)
	}
	if !strings.Contains(httpGet(t, url+"/snapshot"), `"sweepd_records_accepted"`) {
		t.Error("/snapshot missing sweepd counters")
	}

	// Surviving workers exit cleanly on the done signal.
	for i, w := range []*proc{w1, w2} {
		if err := w.cmd.Wait(); err != nil {
			t.Errorf("worker %d exited with %v:\n%s", i+1, err, w.err.String())
		}
	}
	coord2.cmd.Process.Kill() //nolint:errcheck — lingering on purpose
	coord2.cmd.Wait()         //nolint:errcheck

	// The decisive assertion: the chaos run's bytes equal the single-host
	// run's, table from the coordinator's own stdout, CSV/JSON rendered
	// from its checkpoint through the classic resume path.
	if got := coord2.out.String(); got != golden {
		t.Errorf("chaos table differs from single-host run:\n%s\n--- vs ---\n%s", got, golden)
	}
	csv, errOut := runSweep(t, bin, append(single, "-q", "-checkpoint", coordCP, "-format", "csv")...)
	if !strings.Contains(errOut, "restored 8/8") {
		t.Errorf("coordinator checkpoint incomplete for classic resume:\n%s", errOut)
	}
	if csv != goldenCSV {
		t.Error("chaos CSV differs from single-host run")
	}
	if js, _ := runSweep(t, bin, append(single, "-q", "-checkpoint", coordCP, "-format", "json")...); js != goldenJSON {
		t.Error("chaos JSON differs from single-host run")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestSweepServiceFlagGuards: the service modes reject flag combinations
// that contradict the coordinator's ownership of the checkpoint, fast.
func TestSweepServiceFlagGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	bin := buildSweep(t)
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
	grid := serviceGridArgs()
	mustFail("requires -checkpoint", append([]string{"-mode", "serve", "-grid", "chunk"}, grid...)...)
	mustFail("cannot be combined", append(append([]string{"-mode", "serve", "-grid", "chunk"}, grid...),
		"-checkpoint", "x.jsonl", "-shard", "0/2")...)
	mustFail("requires -coordinator", append([]string{"-mode", "work", "-grid", "chunk"}, grid...)...)
	mustFail("cannot be combined", append(append([]string{"-mode", "work", "-grid", "chunk"}, grid...),
		"-coordinator", "http://127.0.0.1:1", "-checkpoint", "x.jsonl")...)
	mustFail("unknown grid", "-mode", "serve", "-grid", "nope", "-checkpoint", "x.jsonl")
	mustFail("unknown mode", []string{"-mode", "nope"}...)
}
