// Package examples checks that every runnable walkthrough under examples/
// still prints exactly the output recorded in testdata/<name>.txt.
//
// To re-record after an intended output change:
//
//	for e in quickstart fairness loadsweep detour custody; do
//		go run ./examples/$e > examples/testdata/$e.txt
//	done
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var names = []string{"quickstart", "fairness", "loadsweep", "detour", "custody"}

// TestExamplesGolden builds all five examples, runs each, and compares its
// stdout byte for byte with the recorded golden.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, name := range names {
		args = append(args, "./"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from testdata/%s.txt\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
