package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chunknet"
)

// renderFailover runs the config and renders the frontier table.
func renderFailover(t *testing.T, cfg FailoverConfig) []byte {
	t.Helper()
	res, err := Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FailoverReport(res).Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFailoverReport pins the rendered failover frontier — at the
// experiment's default scale — byte-for-byte. The frontier is the PR's
// acceptance artifact: reroute completes the blackout that hold cannot,
// hold completes the flutter that reroute cannot, and correlated failure
// stalls every strategy. Any change to the failure model, the detour
// planner or the evacuation path must either leave these bytes untouched
// or consciously regenerate them with:
//
//	go test ./internal/experiments -run TestGoldenFailoverReport -update-golden
func TestGoldenFailoverReport(t *testing.T) {
	got := renderFailover(t, FailoverConfig{})

	path := filepath.Join("testdata", "golden_failover.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("failover report bytes differ from golden fixture\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailoverFrontier asserts the acceptance shape directly from the
// result rows: at least one grid point where reroute completes a
// transfer hold cannot finish inside the horizon, and at least one where
// hold completes what reroute cannot — the two halves of the recovery
// frontier.
func TestFailoverFrontier(t *testing.T) {
	res, err := Failover(FailoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FailoverConfig{}
	cfg.applyDefaults()

	rerouteWins, holdWins := false, false
	for _, custody := range cfg.Custodies {
		hold, ok1 := res.Row("blackout", false, custody, chunknet.FailoverHold)
		reroute, ok2 := res.Row("blackout", false, custody, chunknet.FailoverReroute)
		if ok1 && ok2 && reroute.Completed() && !hold.Completed() {
			rerouteWins = true
			if reroute.DetourFailovers == 0 {
				t.Error("blackout reroute completed without failover detours")
			}
		}
		hold, ok1 = res.Row("flutter", false, custody, chunknet.FailoverHold)
		reroute, ok2 = res.Row("flutter", false, custody, chunknet.FailoverReroute)
		if ok1 && ok2 && hold.Completed() && !reroute.Completed() {
			holdWins = true
			if reroute.DetourFailovers == 0 {
				t.Error("flutter reroute stalled without ever failover-detouring")
			}
		}
	}
	if !rerouteWins {
		t.Error("no point where reroute completes a transfer hold cannot (blackout half of the frontier)")
	}
	if !holdWins {
		t.Error("no point where hold completes a transfer reroute cannot (flutter half of the frontier)")
	}

	// Correlated failure takes the escape route down with the nominal
	// path: no strategy completes the blackout.
	for _, strategy := range cfg.Strategies {
		for _, custody := range cfg.Custodies {
			if row, ok := res.Row("blackout", true, custody, strategy); ok && row.Completed() {
				t.Errorf("strategy %s completed a correlated blackout at custody %s", strategy, custody)
			}
		}
	}
}
