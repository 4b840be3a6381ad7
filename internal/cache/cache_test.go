package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestCustodyBasics(t *testing.T) {
	c := NewCustody(100)
	if !c.Offer(1, 60, 0) {
		t.Fatal("first offer should fit")
	}
	if !c.Offer(2, 40, time.Second) {
		t.Fatal("second offer should exactly fill")
	}
	if c.Offer(3, 1, time.Second) {
		t.Fatal("overfull offer should be rejected")
	}
	if c.Used() != 100 || c.Free() != 0 || c.Len() != 2 {
		t.Errorf("used/free/len = %v/%v/%d", c.Used(), c.Free(), c.Len())
	}

	item, ok := c.Pop(2 * time.Second)
	if !ok || item.Key != 1 || item.Size != 60 {
		t.Fatalf("Pop = %+v, %v; want key 1", item, ok)
	}
	if c.Used() != 40 {
		t.Errorf("used after pop = %v, want 40", c.Used())
	}
	if peek, ok := c.Peek(); !ok || peek.Key != 2 {
		t.Errorf("Peek = %+v, want key 2", peek)
	}

	st := c.Stats()
	if st.Accepted != 2 || st.Rejected != 1 || st.Drained != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HighWater != 100 {
		t.Errorf("high water = %v, want 100", st.HighWater)
	}
	// Key 1 sat from t=0 to t=2s.
	if got := c.ResidencySeconds().Mean(); got != 2 {
		t.Errorf("residency mean = %v, want 2", got)
	}
}

// TestCustodyReset: a reset store is indistinguishable from a new one
// of the same capacity, and refilling it reuses the queue array.
func TestCustodyReset(t *testing.T) {
	c := NewCustody(100)
	for i := 0; i < 8; i++ {
		c.Offer(uint64(i), 10, time.Duration(i)*time.Second)
	}
	c.Pop(9 * time.Second)
	c.Offer(99, 50, 10*time.Second) // rejected
	c.Reset(50)
	fresh := NewCustody(50)
	if c.Len() != 0 || c.Used() != 0 || c.Capacity() != 50 || c.Stats() != fresh.Stats() ||
		c.ResidencySeconds() != fresh.ResidencySeconds() || c.MeanOccupancyAt(time.Second) != 0 {
		t.Fatalf("reset store differs from a new one: len %d used %v cap %v stats %+v",
			c.Len(), c.Used(), c.Capacity(), c.Stats())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		c.Reset(50)
		for i := 0; i < 5; i++ {
			c.Offer(uint64(i), 10, 0)
		}
	}); allocs > 0 {
		t.Errorf("refilling a reset store allocates %.1f objects, want 0", allocs)
	}
}

func TestCustodyZeroCapacity(t *testing.T) {
	c := NewCustody(0)
	if c.Offer(1, 1, 0) {
		t.Error("zero-capacity store must reject")
	}
	if _, ok := c.Pop(0); ok {
		t.Error("empty pop should fail")
	}
}

// TestCustodyConservation checks the store-and-forward invariant: accepted
// bytes = drained bytes + bytes still in custody, under arbitrary
// offer/pop interleavings.
func TestCustodyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCustody(units.ByteSize(1 + rng.Intn(10000)))
		now := time.Duration(0)
		for i := 0; i < 500; i++ {
			now += time.Duration(rng.Intn(1000)) * time.Microsecond
			if rng.Intn(2) == 0 {
				c.Offer(uint64(i), units.ByteSize(1+rng.Intn(200)), now)
			} else {
				c.Pop(now)
			}
		}
		st := c.Stats()
		if st.AcceptedBytes != st.DrainedBytes+c.Used() {
			return false
		}
		if c.Used() > c.Capacity() || c.Used() < 0 {
			return false
		}
		if st.HighWater > c.Capacity() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCustodyFIFOOrder(t *testing.T) {
	c := NewCustody(units.GB)
	for i := 0; i < 300; i++ {
		if !c.Offer(uint64(i), units.KB, 0) {
			t.Fatal("offer failed")
		}
	}
	// Interleave pops to exercise the compaction path.
	for i := 0; i < 300; i++ {
		item, ok := c.Pop(time.Second)
		if !ok || item.Key != uint64(i) {
			t.Fatalf("pop %d = %+v, want key %d", i, item, i)
		}
	}
}

func TestCustodyPaperExample(t *testing.T) {
	// §3.3: a 10GB cache behind a 40Gbps link holds 2 seconds of traffic.
	c := NewCustody(10 * units.GB)
	chunk := 10 * units.MB
	n := 0
	for c.Offer(uint64(n), chunk, 0) {
		n++
	}
	stored := units.ByteSize(n) * chunk
	holdTime := (40 * units.Gbps).TransmissionTime(stored)
	if holdTime != 2*time.Second {
		t.Errorf("custody absorbs %v of 40Gbps traffic, want 2s", holdTime)
	}
}

func TestCustodyMeanOccupancy(t *testing.T) {
	c := NewCustody(1000)
	c.Offer(1, 100, 0)     // 100 bytes over [0, 2s)
	c.Pop(2 * time.Second) // 0 bytes over [2s, 4s)
	got := c.MeanOccupancyAt(4 * time.Second)
	if got != 50 {
		t.Errorf("mean occupancy = %v, want 50", got)
	}
}
