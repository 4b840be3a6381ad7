package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// maxCheckpointLine bounds one checkpoint record's line length (64 MiB ≈
// 3M pooled float64 samples in one scenario). The resume and the merge
// share one scanner that enforces it, so a file is rejected — or
// accepted — identically on both paths.
const maxCheckpointLine = 64 * 1024 * 1024

// checkpointRecord is the stable JSONL shape of one checkpointed result:
// the scenario identity (name, point, replica, seed) plus its metrics.
// Only successful results are persisted — an errored scenario must re-run
// after a restart, and deterministically produces the same outcome.
type checkpointRecord struct {
	Name    string               `json:"name"`
	Point   Point                `json:"point"`
	Replica int                  `json:"replica"`
	Seed    int64                `json:"seed"`
	Values  map[string]float64   `json:"values,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Obs optionally embeds a per-scenario observability summary (enable
	// with Checkpoint.RecordObs). The field is forward- and backward-
	// compatible: readers that predate it ignore it, files without it load
	// unchanged, and restore paths never depend on it.
	Obs *RunObs `json:"obs,omitempty"`
}

// RunObs is the per-scenario observability summary a checkpoint can carry:
// enough to spot stragglers and cost imbalance when re-reading a sweep,
// without inflating records with full metric dumps.
type RunObs struct {
	// ElapsedMS is the scenario's wall-clock execution time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// checkpointHeader is the optional first line of a checkpoint file: a
// label binding the file to the sweep configuration that produced it.
// Scenario names and seeds already pin the grid axes and master seed;
// the label pins everything else (link rates, buffer sizes, horizons …)
// that changes the physics without changing a scenario's name.
type checkpointHeader struct {
	Sweep string `json:"sweep"`
}

// Checkpoint streams successful results to a JSONL file as scenarios
// complete, so a killed process — not just a cancelled context — can
// restart from disk. Each record is one line, written and flushed
// atomically with respect to the file offset (O_APPEND), so a SIGKILL
// can at worst tear the final line; the resume and the merge skip torn
// lines.
// Methods are safe for concurrent use from the runner's workers.
type Checkpoint struct {
	// RecordObs, when set before recording, embeds a RunObs summary
	// (elapsed wall time) in every record. Off by default: files stay
	// byte-identical to pre-observability checkpoints unless asked.
	RecordObs bool

	mu  sync.Mutex
	f   *os.File
	err error // first write error, surfaced by Close
}

// NewCheckpoint opens (creating or appending to) the checkpoint file at
// path. A non-empty label is written as the file's header line on
// creation and verified against an existing file's header — resuming
// under a different label (a changed non-axis parameter) fails here
// rather than silently mixing two physically different sweeps. When
// appending after a kill, a torn final line is first terminated so new
// records cannot glue onto it.
func NewCheckpoint(path, label string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: stat checkpoint: %w", err)
	}
	switch {
	case st.Size() == 0:
		if label != "" {
			line, err := json.Marshal(checkpointHeader{Sweep: label})
			if err == nil {
				_, err = f.Write(append(line, '\n'))
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("sweep: write checkpoint header: %w", err)
			}
		}
	default:
		if err := checkHeader(f, path, label); err != nil {
			f.Close()
			return nil, err
		}
		// A SIGKILL mid-write leaves a torn, unterminated final line;
		// terminate it so the next record starts on a fresh line instead
		// of gluing itself (and the torn tail) into one unparseable line.
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: read checkpoint tail: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("sweep: terminate torn checkpoint line: %w", err)
			}
		}
	}
	return &Checkpoint{f: f}, nil
}

// checkHeader verifies a non-empty file's header line against the
// expected label. Files written without a label (label == "" on both
// sides) have no header; expecting a label from a headerless file — or
// finding a different one — is an error.
func checkHeader(f *os.File, path, label string) error {
	first, err := bufio.NewReader(io.NewSectionReader(f, 0, 1<<20)).ReadString('\n')
	if err != nil && err != io.EOF {
		return fmt.Errorf("sweep: read checkpoint header: %w", err)
	}
	var hdr checkpointHeader
	if json.Unmarshal([]byte(first), &hdr) != nil {
		// The first line is torn (the writer died mid-header); no record
		// can follow it, so the file is effectively empty and carries no
		// label to verify.
		return nil
	}
	if hdr.Sweep == label {
		return nil
	}
	if hdr.Sweep == "" {
		return fmt.Errorf("sweep: checkpoint %s has no config label, expected %q", path, label)
	}
	if label == "" {
		return fmt.Errorf("sweep: checkpoint %s is labelled %q, expected none", path, hdr.Sweep)
	}
	return fmt.Errorf("sweep: checkpoint %s was recorded under config %q, not %q", path, hdr.Sweep, label)
}

// record persists one result. Errored results are skipped (they must
// re-run after a restart). The line is flushed to the OS before record
// returns, so a subsequent kill cannot lose it.
func (c *Checkpoint) record(r Result) error {
	if r.Err != nil {
		return nil
	}
	rec := checkpointRecord{
		Name:    r.Name,
		Point:   r.Point,
		Replica: r.Replica,
		Seed:    r.Seed,
		Values:  r.Metrics.Values,
		Samples: r.Metrics.Samples,
	}
	if c.RecordObs {
		rec.Obs = &RunObs{ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond)}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: marshal checkpoint record: %w", err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if _, err := c.f.Write(line); err != nil {
		c.err = fmt.Errorf("sweep: write checkpoint: %w", err)
		return c.err
	}
	return nil
}

// Progress adapts the checkpoint into a Runner progress callback that
// records each completed scenario and then invokes next (when non-nil).
// Write errors are remembered and surfaced by Close — a sweep should not
// die because its checkpoint disk filled, it just loses resumability.
func (c *Checkpoint) Progress(next Progress) Progress {
	return func(done, total int, r Result) {
		c.record(r) //nolint:errcheck — remembered in c.err for Close
		if next != nil {
			next(done, total, r)
		}
	}
}

// Close closes the file and reports the first write error, if any.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.f.Close(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// classifyCheckpointLine applies the checkpoint scan rules — shared by
// the resume and the merge through scanRecordOffsets, so both accept and
// reject exactly the same lines. Blank lines, the header line, and torn
// (unparseable) lines from a killed writer are skipped; records naming a
// scenario the grid cannot derive, or disagreeing with its derived seed,
// fail loudly; everything else returns the scenario index and the parsed
// record. index must map each scenario's Name to its position in
// scenarios.
func classifyCheckpointLine(line []byte, path string, scenarios []Scenario, index map[string]int) (i int, rec checkpointRecord, skip bool, err error) {
	if len(line) == 0 {
		return 0, rec, true, nil
	}
	var hdr checkpointHeader
	if json.Unmarshal(line, &hdr) == nil && hdr.Sweep != "" {
		return 0, rec, true, nil // the header line, verified on open
	}
	if json.Unmarshal(line, &rec) != nil {
		// A torn line from a killed writer; the scenario it would have
		// recorded simply re-runs (or stays missing in a merge).
		return 0, rec, true, nil
	}
	i, ok := index[rec.Name]
	if !ok {
		return 0, rec, false, fmt.Errorf("sweep: checkpoint %s records unknown scenario %q (different grid?)", path, rec.Name)
	}
	if rec.Seed != scenarios[i].Seed {
		return 0, rec, false, fmt.Errorf("sweep: checkpoint %s scenario %q has seed %d, grid derives %d (different master seed?)",
			path, rec.Name, rec.Seed, scenarios[i].Seed)
	}
	return i, rec, false, nil
}
