package cache

import (
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// Item is a unit of data held in custody: an opaque key (chunk identity),
// its size, and when custody was taken.
type Item struct {
	Key        uint64
	Size       units.ByteSize
	EnqueuedAt time.Duration
}

// Custody is a FIFO byte-budget store. Chunks that cannot be forwarded
// because the outgoing link is saturated are offered to the custody store;
// they drain in arrival order when capacity frees up. This is the paper's
// "temporary custodian" role for in-network storage (§3.3): caching here
// does not replace buffering — it absorbs pushed anticipated data so the
// sender need not be throttled end-to-end.
type Custody struct {
	capacity units.ByteSize
	used     units.ByteSize
	q        []Item
	head     int

	stat CustodyStats
	occ  stats.TimeWeighted
	res  stats.Summary
}

// CustodyStats aggregates the lifetime accounting of a custody store.
type CustodyStats struct {
	Accepted      int
	Rejected      int
	Drained       int
	AcceptedBytes units.ByteSize
	RejectedBytes units.ByteSize
	DrainedBytes  units.ByteSize
	HighWater     units.ByteSize
}

// NewCustody returns a custody store with the given byte capacity.
// Capacity 0 means the store rejects everything (pure back-pressure mode).
func NewCustody(capacity units.ByteSize) *Custody {
	return &Custody{capacity: capacity}
}

// Reset empties the store and sets its byte capacity, as NewCustody
// would, but keeps the queue's backing array for reuse.
func (c *Custody) Reset(capacity units.ByteSize) {
	*c = Custody{capacity: capacity, q: c.q[:0]}
}

// Offer attempts to take custody of a chunk at time now. It returns false
// — and records a rejection — when the chunk does not fit.
func (c *Custody) Offer(key uint64, size units.ByteSize, now time.Duration) bool {
	if c.used+size > c.capacity {
		c.stat.Rejected++
		c.stat.RejectedBytes += size
		return false
	}
	c.q = append(c.q, Item{Key: key, Size: size, EnqueuedAt: now})
	c.used += size
	c.stat.Accepted++
	c.stat.AcceptedBytes += size
	if c.used > c.stat.HighWater {
		c.stat.HighWater = c.used
	}
	c.occ.Observe(now.Seconds(), float64(c.used))
	return true
}

// Pop releases the oldest chunk from custody at time now, recording its
// residency time. It returns false when the store is empty.
func (c *Custody) Pop(now time.Duration) (Item, bool) {
	if c.Len() == 0 {
		return Item{}, false
	}
	item := c.q[c.head]
	c.head++
	c.used -= item.Size
	c.stat.Drained++
	c.stat.DrainedBytes += item.Size
	c.res.Add((now - item.EnqueuedAt).Seconds())
	c.occ.Observe(now.Seconds(), float64(c.used))
	// Compact once the dead prefix dominates, keeping Pop amortised O(1).
	if c.head > 64 && c.head*2 > len(c.q) {
		c.q = append(c.q[:0], c.q[c.head:]...)
		c.head = 0
	}
	return item, true
}

// Peek returns the oldest chunk without releasing it.
func (c *Custody) Peek() (Item, bool) {
	if c.Len() == 0 {
		return Item{}, false
	}
	return c.q[c.head], true
}

// Len returns the number of chunks currently in custody.
func (c *Custody) Len() int { return len(c.q) - c.head }

// Used returns the bytes currently in custody.
func (c *Custody) Used() units.ByteSize { return c.used }

// Capacity returns the store's byte budget.
func (c *Custody) Capacity() units.ByteSize { return c.capacity }

// Free returns the remaining byte budget.
func (c *Custody) Free() units.ByteSize { return c.capacity - c.used }

// Stats returns the lifetime accounting counters.
func (c *Custody) Stats() CustodyStats { return c.stat }

// ResidencySeconds summarises how long drained chunks spent in custody.
func (c *Custody) ResidencySeconds() stats.Summary { return c.res }

// MeanOccupancyAt returns the time-weighted mean occupancy (bytes) of the
// store over [first observation, now].
func (c *Custody) MeanOccupancyAt(now time.Duration) float64 {
	return c.occ.MeanAt(now.Seconds())
}
