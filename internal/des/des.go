// Package des is a minimal discrete-event simulation kernel: a clock and a
// deterministic event queue. Both INRPP simulators run single-threaded on
// top of it so every run is exactly reproducible.
//
// Events fire in (time, seq) order, seq being the scheduling order. seq
// is unique, so this is a total order: any correct priority queue pops
// the same sequence, which is what lets the queue's layout change
// without changing a single output byte.
//
// The queue is a 4-ary min-heap of pointer-free value slots {at, seq,
// id}; id indexes an arena holding each event's callback and generation.
// Slots are recycled through a free list, so steady-state scheduling
// performs no heap allocation, and heap moves copy plain words (no GC
// write barriers). Timers stay safe across reuse via the generation
// counter: cancelling a timer whose slot has already fired and been
// reused is a no-op, never a clobber of the new tenant.
//
// Cancel only marks its slot dead. Dead slots are dropped when they
// reach the top of the heap, or all at once when they outnumber the live
// ones (and a small floor): the heap is then filtered and re-heapified
// in O(n), so a cancel-and-re-arm timer pattern keeps the heap at about
// twice the live event count instead of one entry per cancel.
//
// Reserve and AtKey split scheduling in two: Reserve fixes an event's key
// now, AtKey puts a callback into the heap under it later. A FIFO
// producer (a propagation pipe) reserves a key per item but keeps only
// its head in the heap, and still fires each item exactly where At would
// have put it.
package des

import (
	"time"

	"repro/internal/obs"
)

// compactFloor is the number of dead slots below which Cancel never
// compacts: small heaps simply drop their dead slots as they surface.
const compactFloor = 32

// Simulator owns the virtual clock and the pending-event queue. The zero
// value is ready to use.
type Simulator struct {
	now  time.Duration
	heap []slot
	// fns and gens are the slot arena, indexed by slot id: the callback
	// (nil once fired, cancelled or free) and the tenancy generation.
	fns  []func()
	gens []uint32
	free []int32
	dead int // cancelled slots still in heap
	seq  uint64
	// floor is the smallest key that may still be scheduled: just past
	// the event being fired, or at the clock after RunUntil advanced it.
	floor Key
	stop  bool

	// Observability instruments (nil when not instrumented; every update
	// below is a nil-safe no-op then). Counters are updated on the
	// scheduling paths; the heap-depth gauge tracks the raw heap length,
	// cancelled slots included, since that is what bounds memory.
	mScheduled *obs.Counter
	mFired     *obs.Counter
	mPooled    *obs.Counter
	mHeapDepth *obs.Gauge
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Reset returns the simulator to the state New gives, keeping its
// arrays: the clock and sequence restart at zero, every pending callback
// is dropped and the instruments are unbound. Every slot is freed with
// its generation bumped, so a Timer taken before the reset stays inert.
// Slot ids are handed out again from zero upward, as in a new simulator;
// ids never order events, so reuse changes no firing order.
func (s *Simulator) Reset() {
	clear(s.fns)
	free := s.free[:0]
	for id := len(s.fns) - 1; id >= 0; id-- {
		s.gens[id]++
		free = append(free, int32(id))
	}
	*s = Simulator{heap: s.heap[:0], fns: s.fns, gens: s.gens, free: free}
}

// Instrument binds the simulator's kernel metrics to reg:
//
//   - des_events_scheduled counts At/After calls and reserved keys
//     (Reserve counts, the AtKey that later uses the key does not);
//   - des_events_fired counts callbacks run;
//   - des_events_pooled counts slots returned to the free list: a fired
//     slot just before its callback runs, a cancelled one when it reaches
//     the top of the heap or when compaction filters it out;
//   - gauge des_heap_depth is the heap length, dead slots included.
//
// A nil registry leaves the simulator uninstrumented (the default): the
// hot paths then pay one nil check per update and allocate nothing.
// Metrics only observe — they never change scheduling.
func (s *Simulator) Instrument(reg *obs.Registry) {
	s.mScheduled = reg.Counter("des_events_scheduled")
	s.mFired = reg.Counter("des_events_fired")
	s.mPooled = reg.Counter("des_events_pooled")
	s.mHeapDepth = reg.Gauge("des_heap_depth")
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Key is an event's position in the firing order: its time, then its
// scheduling sequence number.
type Key struct {
	at  time.Duration
	seq uint64
}

func (k Key) before(o Key) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// Timer is a handle to a scheduled event, allowing cancellation. The
// zero value is an inert timer; Cancel on it is a no-op.
type Timer struct {
	sim *Simulator
	id  int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op (the generation check makes this
// safe even after the underlying slot has been reused).
func (t Timer) Cancel() {
	s := t.sim
	if s == nil || s.gens[t.id] != t.gen || s.fns[t.id] == nil {
		return
	}
	s.fns[t.id] = nil
	s.dead++
	if s.dead > compactFloor && 2*s.dead > len(s.heap) {
		s.compact()
	}
}

// At schedules fn at absolute time t. Events scheduled in the past fire at
// the current time (immediately on the next step), preserving causality.
// Events at equal times fire in scheduling order.
func (s *Simulator) At(t time.Duration, fn func()) Timer {
	s.mScheduled.Inc()
	return s.schedule(s.reserve(t), fn)
}

// After schedules fn d from now.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// Reserve fixes the key an event at time t would get from At right now
// (clamped to the present the same way) without scheduling anything;
// AtKey schedules a callback under it later. Keys taken in order fire in
// that order, so a FIFO producer can keep only its head event pending.
func (s *Simulator) Reserve(t time.Duration) Key {
	s.mScheduled.Inc()
	return s.reserve(t)
}

// AtKey schedules fn under a key obtained from Reserve. The key must not
// order before the event being fired (nor before the clock): it panics
// otherwise, since the event would fire out of order.
func (s *Simulator) AtKey(k Key, fn func()) Timer {
	if k.seq >= s.seq || k.before(s.floor) {
		panic("des: AtKey with a key not reserved or already passed")
	}
	return s.schedule(k, fn)
}

func (s *Simulator) reserve(t time.Duration) Key {
	if t < s.now {
		t = s.now
	}
	k := Key{at: t, seq: s.seq}
	s.seq++
	return k
}

// schedule takes a slot from the free list (or grows the arena) and
// pushes it under k.
func (s *Simulator) schedule(k Key, fn func()) Timer {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = int32(len(s.fns))
		s.fns = append(s.fns, nil)
		s.gens = append(s.gens, 0)
	}
	s.fns[id] = fn
	s.push(slot{Key: k, id: id})
	s.mHeapDepth.Set(int64(len(s.heap)))
	return Timer{sim: s, id: id, gen: s.gens[id]}
}

// recycle returns a slot to the free list, bumping its generation so
// stale Timers can no longer touch it.
func (s *Simulator) recycle(id int32) {
	s.fns[id] = nil
	s.gens[id]++
	s.free = append(s.free, id)
	s.mPooled.Inc()
}

// Step fires the next pending event, advancing the clock to it. It reports
// whether an event was fired.
func (s *Simulator) Step() bool {
	for len(s.heap) > 0 {
		top := s.pop()
		fn := s.fns[top.id]
		// Recycle before firing: the callback frequently schedules a
		// follow-up event, which can then reuse this slot immediately.
		s.recycle(top.id)
		s.mHeapDepth.Set(int64(len(s.heap)))
		if fn == nil {
			s.dead-- // cancelled
			continue
		}
		s.now = top.at
		s.floor = Key{at: top.at, seq: top.seq + 1}
		s.mFired.Inc()
		fn()
		return true
	}
	return false
}

// Run fires events until the queue empties or Stop is called.
func (s *Simulator) Run() {
	s.stop = false
	for !s.stop && s.Step() {
	}
}

// RunUntil fires all events up to and including time t, then advances the
// clock to t (even if no event was pending there).
func (s *Simulator) RunUntil(t time.Duration) {
	s.stop = false
	for !s.stop {
		next, ok := s.peekTime()
		if !ok || next > t {
			break
		}
		s.Step()
	}
	if s.now <= t {
		s.now = t
		// Every key at or before t reserved so far is now passed.
		s.floor = Key{at: t, seq: s.seq}
	}
}

// Stop makes the innermost Run or RunUntil return after the current event.
func (s *Simulator) Stop() { s.stop = true }

// Pending returns the number of scheduled (non-cancelled) events.
func (s *Simulator) Pending() int { return len(s.heap) - s.dead }

func (s *Simulator) peekTime() (time.Duration, bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if s.fns[top.id] != nil {
			return top.at, true
		}
		s.pop()
		s.recycle(top.id)
		s.dead--
		s.mHeapDepth.Set(int64(len(s.heap)))
	}
	return 0, false
}

// compact drops every dead slot from the heap at once and restores the
// heap property bottom-up in O(n).
func (s *Simulator) compact() {
	live := s.heap[:0]
	for _, e := range s.heap {
		if s.fns[e.id] == nil {
			s.recycle(e.id)
			continue
		}
		live = append(live, e)
	}
	s.heap = live
	s.dead = 0
	// (n+2)/4-1 is the last parent, (n-2)/4, and -1 for n < 2.
	for i := (len(live)+2)/4 - 1; i >= 0; i-- {
		s.siftDown(i, live[i])
	}
	s.mHeapDepth.Set(int64(len(s.heap)))
}

// slot is one heap entry: the event's key and its arena index. It holds
// no pointers, so the heap's backing array is never scanned by the GC and
// moving entries costs plain word copies.
type slot struct {
	Key
	id int32
}

func (a slot) less(b slot) bool { return a.before(b.Key) }

// push and pop maintain a 4-ary min-heap on (at, seq): a shallower tree
// than a binary heap, whose four children share a cache line or two.
// Both sift with a hole — parents or children move into it and the new
// entry is written once at the end — instead of swapping pairs.
func (s *Simulator) push(e slot) {
	h := append(s.heap, e)
	s.heap = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (s *Simulator) pop() slot {
	top := s.heap[0]
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown places e at or below index i.
func (s *Simulator) siftDown(i int, e slot) {
	h := s.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
