package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// IncompleteError reports a merge whose checkpoints do not cover the
// whole grid: some scenarios were recorded by no file. It lists exactly
// which, so an operator can see which shard (or which host's run) is
// missing or unfinished.
type IncompleteError struct {
	// Missing lists the absent scenarios' names, in scenario order.
	Missing []string
	// Total is the grid's scenario count.
	Total int
}

func (e *IncompleteError) Error() string {
	const show = 8
	names := e.Missing
	more := ""
	if len(names) > show {
		more = fmt.Sprintf(" … and %d more", len(names)-show)
		names = names[:show]
	}
	return fmt.Sprintf("sweep: merge incomplete: %d/%d scenarios missing: %s%s",
		len(e.Missing), e.Total, strings.Join(names, "; "), more)
}

// recordRef locates one scenario's checkpoint record for the streaming
// merge: which file holds it, at which byte offset, and how long the line
// is. 24 bytes per scenario instead of the record's parsed samples.
type recordRef struct {
	file int
	off  int64
	n    int
}

// MergeCheckpointsInto combines N shard checkpoint files — the output of
// a sweep partitioned across machines with Shard — into acc, without
// executing any scenario. It indexes each file's records by byte offset in
// a validation pass, then re-reads exactly one record at a time in
// scenario order and folds it into acc, so peak memory is one record plus
// the accumulator's representation: with a sketch-mode accumulator, a
// merge of arbitrarily many shard checkpoints aggregates in bounded space.
// Because records feed acc in scenario order, the folded aggregates equal
// a single-host run of the same grid at any shard count: byte-identical in
// exact mode, identical sketch states in sketch mode (a sketch is a pure
// function of its Add order, and checkpointed float64s round-trip
// exactly).
//
// Every file is validated the way LoadCheckpoint validates a resume: a
// header label differing from label (different non-axis configuration),
// records naming a scenario the grid cannot derive (different grid) and
// records disagreeing with a scenario's derived seed (different master
// seed) all fail loudly; torn lines are skipped and duplicates within one
// file resolve first-wins. On top of that, merge-specific checks reject
// overlapping shard sets (two files recording the same scenario), missing
// files (unlike a resume, a merge must not silently treat a typo'd path
// as an empty shard), and incomplete coverage — the returned
// *IncompleteError names the absent scenarios. A checkpoint that
// contributes zero scenarios is fine: tiny grids can legitimately leave a
// shard empty.
func MergeCheckpointsInto(acc *Accumulator, label string, scenarios []Scenario, paths ...string) error {
	if len(paths) == 0 {
		return errors.New("sweep: merge needs at least one checkpoint file")
	}
	index := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		index[sc.Name] = i
	}
	refs := make([]recordRef, len(scenarios))
	for i := range refs {
		refs[i].file = -1
	}

	files := make([]*os.File, len(paths))
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for fi, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("sweep: merge checkpoint: %w", err)
		}
		files[fi] = f
		if err := checkHeader(f, path, label); err != nil {
			return err
		}
		err = scanRecordOffsets(f, path, scenarios, index, func(i int, off int64, n int) error {
			switch {
			case refs[i].file == fi:
				return nil // duplicate within one file (resume rewrote it); first wins
			case refs[i].file >= 0:
				return fmt.Errorf("sweep: checkpoints %s and %s overlap: both record scenario %q",
					paths[refs[i].file], path, scenarios[i].Name)
			}
			refs[i] = recordRef{file: fi, off: off, n: n}
			return nil
		})
		if err != nil {
			return err
		}
	}

	var missing []string
	for i, ref := range refs {
		if ref.file < 0 {
			missing = append(missing, scenarios[i].Name)
		}
	}
	if len(missing) > 0 {
		return &IncompleteError{Missing: missing, Total: len(scenarios)}
	}

	var buf []byte
	for i, sc := range scenarios {
		ref := refs[i]
		var res Result
		var err error
		res, buf, err = readRecordAt(files[ref.file], paths[ref.file], ref, sc, buf)
		if err != nil {
			return err
		}
		if err := acc.Observe(res); err != nil {
			return err
		}
	}
	return nil
}

// readLineCapped reads one newline-terminated line, enforcing the same
// maxCheckpointLine bound LoadCheckpoint's scanner applies — without it
// the streaming paths would accept files the aligned loader rejects, and
// an adversarial newline-free file could balloon memory. The cap is
// checked per buffer fill, so at most one extra buffer is held past it.
func readLineCapped(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		line = append(line, frag...)
		if err == bufio.ErrBufferFull {
			if len(line) > maxCheckpointLine {
				return line, fmt.Errorf("line exceeds %d bytes", maxCheckpointLine)
			}
			continue
		}
		return line, err
	}
}

// readRecordAt re-reads one byte-offset-indexed checkpoint record and
// returns it as the scenario's restored Result. The offsets were indexed
// in a separate pass; if the file was rewritten in between, the bytes here
// may fail to parse — or parse as some other scenario's perfectly valid
// record — so both are rejected rather than folded into the wrong grid
// point. buf is a scratch buffer, returned (possibly grown) for reuse.
func readRecordAt(f *os.File, path string, ref recordRef, sc Scenario, buf []byte) (Result, []byte, error) {
	if cap(buf) < ref.n {
		buf = make([]byte, ref.n)
	}
	buf = buf[:ref.n]
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return Result{}, buf, fmt.Errorf("sweep: reread checkpoint %s: %w", path, err)
	}
	var rec CheckpointRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		return Result{}, buf, fmt.Errorf("sweep: reread checkpoint %s: record for %q changed underfoot: %w",
			path, sc.Name, err)
	}
	if rec.Name != sc.Name || rec.Seed != sc.Seed {
		return Result{}, buf, fmt.Errorf("sweep: reread checkpoint %s: offset %d now holds record %q, expected %q (file rewritten underfoot?)",
			path, ref.off, rec.Name, sc.Name)
	}
	return Result{
		Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed,
		Metrics: Metrics{Values: rec.Values, Samples: rec.Samples},
	}, buf, nil
}

// scanRecordOffsets reads a checkpoint file line by line, applying exactly
// LoadCheckpoint's accept/reject rules — skip blanks, skip the header line,
// skip torn/unparseable lines, reject unknown scenarios and seed
// mismatches — and calls visit with each accepted record's scenario index,
// byte offset and length.
func scanRecordOffsets(f *os.File, path string, scenarios []Scenario, index map[string]int, visit func(i int, off int64, n int) error) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("sweep: seek checkpoint: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		line, err := readLineCapped(r)
		if err != nil && err != io.EOF {
			return fmt.Errorf("sweep: read checkpoint %s: %w", path, err)
		}
		lineOff := off
		off += int64(len(line))
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		i, _, skip, verr := classifyCheckpointLine(line, path, scenarios, index)
		if verr != nil {
			return verr
		}
		if !skip {
			if verr := visit(i, lineOff, len(line)); verr != nil {
				return verr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}
