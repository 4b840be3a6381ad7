package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// ErrOtherShard marks a scenario that belongs to a different shard of a
// partitioned sweep. Results carrying it were never executed by this
// process — Aggregated excludes them from both replica and failure
// counts, and Runner.Resume never re-runs them.
var ErrOtherShard = errors.New("sweep: scenario belongs to another shard")

// Shard selects one slice of a deterministic Count-way partition of an
// expanded scenario grid, so a sweep can be split across machines: each
// host runs `Shard{Index: i, Count: n}` of the same grid, writes a
// standard checkpoint, and MergeCheckpointsInto combines the N files into
// output byte-identical to an unsharded run.
//
// A scenario's shard is a hash of its identity — the parameter point in
// canonical (key-sorted) form plus the replica index — so the partition
// is stable under grid-axis reordering and independent of the master
// seed and of the scenario's position in the expanded list. The zero
// value (Count 0) selects every scenario.
type Shard struct {
	// Index is the 0-based slice this process runs.
	Index int
	// Count is the total number of slices; 0 or 1 means the whole grid.
	Count int
}

// Validate reports whether the shard is usable: the zero value, or
// 0 ≤ Index < Count. Any other form — "0/0", a negative count — is an
// error, not a silent whole-grid run.
func (s Shard) Validate() error {
	if s == (Shard{}) {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("sweep: shard count %d must be ≥ 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: shard index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

// String renders the canonical "index/count" form; the zero value
// renders "0/1".
func (s Shard) String() string {
	if s.Count <= 1 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses the "index/count" form (0-based, e.g. "0/3" …
// "2/3") used by cmd/sweep's -shard flag.
func ParseShard(str string) (Shard, error) {
	idx, cnt, ok := strings.Cut(str, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form index/count (e.g. 0/3)", str)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard index in %q", str)
	}
	n, err := strconv.Atoi(strings.TrimSpace(cnt))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard count in %q", str)
	}
	if n < 1 {
		// "0/0" must not parse to the zero value and silently run the
		// whole grid on a host that was meant to run one slice.
		return Shard{}, fmt.Errorf("sweep: shard count in %q must be ≥ 1", str)
	}
	s := Shard{Index: i, Count: n}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// Of returns the shard index in [0, Count) that owns the scenario.
func (s Shard) Of(sc Scenario) int {
	if s.Count <= 1 {
		return 0
	}
	return int(shardHash(sc.Point, sc.Replica) % uint64(s.Count))
}

// Contains reports whether this shard owns the scenario.
func (s Shard) Contains(sc Scenario) bool {
	return s.Count <= 1 || s.Of(sc) == s.Index
}

// Select returns the scenarios this shard owns, preserving scenario
// order. Selecting every Index of the same Count yields disjoint slices
// whose union is the whole list.
func (s Shard) Select(scenarios []Scenario) []Scenario {
	if s.Count <= 1 {
		return scenarios
	}
	var out []Scenario
	for _, sc := range scenarios {
		if s.Contains(sc) {
			out = append(out, sc)
		}
	}
	return out
}

// shardHash hashes a scenario's identity into its partition key. The
// point's parameters are hashed in key-sorted order with explicit
// separators, so two grids that differ only in axis order partition
// identically, and no two distinct points can collide by concatenation.
func shardHash(pt Point, replica int) uint64 {
	parts := make([]string, len(pt))
	for i, kv := range pt {
		parts[i] = kv.Key + "=" + kv.Value
	}
	sort.Strings(parts)
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(replica))
	h.Write(buf[:])
	return h.Sum64()
}
