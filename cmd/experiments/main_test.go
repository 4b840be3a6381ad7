package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBadFlagsFailAtParse: a flag value no experiment can honour must stop
// the command before any experiment runs, with a non-zero exit and an
// error naming the flag — never exit 0 with no output, fall back to a
// text table, silently run one seed, let -quick overwrite an explicit
// -seeds or -horizon, or print some tables before a bad -horizon fails.
func TestBadFlagsFailAtParse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-run", []string{"-run", "bogus"}},
		{"-run", []string{"-run", ""}},
		{"-format", []string{"-run", "table1", "-format", "xml"}},
		{"-format", []string{"-run", "table1", "-format", "json"}},
		{"-seeds", []string{"-run", "fig4a", "-quick", "-seeds", "-2"}},
		{"-seeds", []string{"-run", "fig4a", "-quick", "-seeds", "0"}},
		// -quick would overwrite an explicit -seeds or -horizon, and a
		// negative -horizon would fail only inside Fig 4, after Table 1.
		{"-seeds", []string{"-run", "fig4a", "-quick", "-seeds", "5"}},
		{"-horizon", []string{"-run", "fig4a", "-quick", "-horizon", "2s"}},
		{"-seeds", []string{"-run", "disruption", "-quick", "-seeds", "4"}},
		{"-horizon", []string{"-run", "all", "-horizon", "-1s"}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("%v: exited 0, want a flag error", tc.args)
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran before rejecting the flag:\n%s", tc.args, stdout.String())
		}
		if !bytes.Contains(stderr.Bytes(), []byte(tc.flag)) {
			t.Errorf("%v: error does not name %s:\n%s", tc.args, tc.flag, stderr.String())
		}
	}
	if out, err := exec.Command(bin, "-run", "table1", "-format", "csv").CombinedOutput(); err != nil {
		t.Errorf("-run table1 -format csv: %v\n%s", err, out)
	}
}
