package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// parseGrid parses args the way the sweep command does and expands the
// grid they select, sharded when -shard is given.
func parseGrid(t *testing.T, args ...string) ([]sweep.Scenario, string, error) {
	t.Helper()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerGrids(fs)
	mode := fs.String("mode", "flow", "")
	seed := fs.Int64("seed", 1, "")
	replicas := fs.Int("replicas", 3, "")
	shardStr := fs.String("shard", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	scenarios, label, err := expandGrid(fs, *mode, *seed, *replicas, nil, nil)
	if err != nil || *shardStr == "" {
		return scenarios, label, err
	}
	shard, err := sweep.ParseShard(*shardStr)
	if err != nil {
		t.Fatal(err)
	}
	return shard.Select(scenarios), label, nil
}

// gridBlock is one flag set of testdata/grids.txt and what the sweep
// checkpointed for it.
type gridBlock struct {
	args    []string
	label   string
	records []string // "seed\tname", in checkpoint order
}

func readGridBlocks(t *testing.T) []gridBlock {
	t.Helper()
	f, err := os.Open("testdata/grids.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var blocks []gridBlock
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "args\t"):
			blocks = append(blocks, gridBlock{args: strings.Split(line, "\t")[1:]})
		case strings.HasPrefix(line, "label\t"):
			blocks[len(blocks)-1].label = strings.TrimPrefix(line, "label\t")
		default:
			b := &blocks[len(blocks)-1]
			b.records = append(b.records, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// TestGridParity: the table-driven grid builder reproduces, for every
// flag set in testdata/grids.txt, the checkpoint label and the exact
// (seed, scenario name) sequence the hand-wired builder it replaced wrote
// — flow, chunk, churn, loss, correlated + maintenance, failover with a
// detour, multi-valued INRPP knobs and a sharded run.
func TestGridParity(t *testing.T) {
	blocks := readGridBlocks(t)
	if len(blocks) < 8 {
		t.Fatalf("fixture has %d flag sets, want at least 8", len(blocks))
	}
	for _, b := range blocks {
		scenarios, label, err := parseGrid(t, b.args...)
		if err != nil {
			t.Errorf("%q: %v", b.args, err)
			continue
		}
		if label != b.label {
			t.Errorf("%q: label\n  %s\nwant\n  %s", b.args, label, b.label)
		}
		got := make([]string, len(scenarios))
		for i, sc := range scenarios {
			got[i] = fmt.Sprintf("%d\t%s", sc.Seed, sc.Name)
		}
		if !slices.Equal(got, b.records) {
			t.Errorf("%q: scenarios\n  %s\nwant\n  %s", b.args,
				strings.Join(got, "\n  "), strings.Join(b.records, "\n  "))
		}
	}
}

// seedRuleValues gives every table axis two valid, non-quiet values and
// the flags that make the axis active. A new row without an entry here
// fails TestSeedRule.
var seedRuleValues = map[string][]string{
	"isps":          {"-isps", "VSNL (IN),Exodus (US)"},
	"flows":         {"-flows", "10,20"},
	"policies":      {"-policies", "sp,inrp"},
	"transports":    {"-transports", "inrpp,aimd"},
	"anticipations": {"-anticipations", "256,4096"},
	"custody":       {"-custody", "1GB,10GB"},
	"transfers":     {"-transfers", "1,2"},
	"outage-up":     {"-outage-up", "1s,2s", "-outage-kind", "exp"},
	"outage-down":   {"-outage-down", "100ms,200ms", "-outage-kind", "exp"},
	"loss":          {"-loss", "0.01,0.02"},
	"correlated":    {"-correlated", "false,true", "-detour-rate", "1Gbps", "-maintenance", "1s-2s"},
	"failover":      {"-failover", "hold,reroute", "-detour-rate", "1Gbps"},
}

// TestSeedRule checks the table's seed column against the expanded
// grids: two scenarios that differ only on a non-seed (comparison) axis
// share a seed, and two that differ only on a seed axis do not.
func TestSeedRule(t *testing.T) {
	type axisRow struct {
		mode, flag, key string
		seed            bool
	}
	var rows []axisRow
	for _, p := range flowGrid.axes {
		rows = append(rows, axisRow{"flow", p.flag, p.key, p.seed})
	}
	for _, p := range chunkGrid.axes {
		rows = append(rows, axisRow{"chunk", p.flag, p.key, p.seed})
	}
	var comparison []string
	for _, r := range rows {
		vals, ok := seedRuleValues[r.flag]
		if !ok {
			t.Errorf("-%s: no values in seedRuleValues", r.flag)
			continue
		}
		if !r.seed {
			comparison = append(comparison, r.key)
		}
		scenarios, _, err := parseGrid(t, append([]string{"-mode", r.mode, "-replicas", "1"}, vals...)...)
		if err != nil {
			t.Fatalf("-%s: %v", r.flag, err)
		}
		pairs := 0
		for _, a := range scenarios {
			for _, b := range scenarios {
				if a.Name >= b.Name || !differOnlyOn(a.Point, b.Point, r.key) {
					continue
				}
				pairs++
				if (a.Seed == b.Seed) == r.seed {
					t.Errorf("-%s (seed axis %v): %q and %q have seeds %d, %d",
						r.flag, r.seed, a.Name, b.Name, a.Seed, b.Seed)
				}
			}
		}
		if pairs == 0 {
			t.Errorf("-%s: no two scenarios differ only on %s", r.flag, r.key)
		}
	}
	want := []string{"policy", "transport", "ac", "custody", "failover"}
	if !slices.Equal(comparison, want) {
		t.Errorf("non-seed axes %v, want %v", comparison, want)
	}
}

// differOnlyOn reports whether points a and b differ on key and agree on
// every other axis.
func differOnlyOn(a, b sweep.Point, key string) bool {
	return a.Get(key) != b.Get(key) && slices.Equal(dropKey(a, key), dropKey(b, key))
}

func dropKey(p sweep.Point, key string) sweep.Point {
	return slices.DeleteFunc(slices.Clone(p), func(kv sweep.Param) bool { return kv.Key == key })
}

// TestBaselineCollapseIgnoresCase: the baseline collapse compares the
// decoded transport, so -transports INRPP keeps every INRPP-only cell
// exactly like -transports inrpp.
func TestBaselineCollapseIgnoresCase(t *testing.T) {
	rows := func(transports string) []string {
		scenarios, _, err := parseGrid(t, "-mode", "chunk", "-transports", transports,
			"-anticipations", "256,4096", "-replicas", "1")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sc := range scenarios {
			names = append(names, strings.ToLower(sc.Name))
		}
		return names
	}
	lower, upper := rows("inrpp,aimd"), rows("INRPP,AIMD")
	if len(lower) != 3 {
		t.Errorf("inrpp,aimd × ac 256,4096 kept %d rows, want 3 (INRPP × 2, AIMD × 1): %q", len(lower), lower)
	}
	if !slices.Equal(lower, upper) {
		t.Errorf("uppercase transports kept %q, lowercase %q", upper, lower)
	}
}
