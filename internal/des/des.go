// Package des is a minimal discrete-event simulation kernel: a clock and a
// deterministic event queue. Both INRPP simulators run single-threaded on
// top of it so every run is exactly reproducible.
//
// Events fire in (time, seq) order. seq is the scheduling order for
// events scheduled with At, After or Reserve, and 1<<63 | rank for late
// events (AtLate). So at one instant every other event fires first, in
// scheduling order, and then the late events fire, in rank order. No
// two pending events share a key (ranks are unique at one instant), so
// this is a total order: any correct priority queue pops the same
// sequence, which is what lets the queue's layout change without
// changing a single output byte.
//
// The queue is a monotone radix queue on event time. It relies on the
// kernel never scheduling before its clock: every queued time is at or
// after the queue's base, the time of the last slot taken out. Bucket i
// holds the slots whose time first differs from the base at bit i, so
// filing a slot is one bit-length and one list push, whatever the queue
// length. The slots at the base itself wait in the ready list in seq
// order. When that list runs dry, the lowest non-empty bucket is
// emptied: its earliest time becomes the base, its slots at that time
// become ready and the rest fall into lower buckets. Every move puts a
// slot in a strictly lower bucket, so it moves a few times at most, and
// firing an event never sifts through the other pending ones.
//
// Slots live in an arena of cells {callback, key, generation, next};
// the buckets are singly linked lists threaded through the arena's next
// field, so the queue itself is 64 list heads and a bitmask of the
// non-empty ones. Slots are recycled through a free list, so
// steady-state scheduling performs no heap allocation. Timers stay safe
// across reuse via the generation counter: cancelling a timer whose slot
// has already fired and been reused is a no-op, never a clobber of the
// new tenant.
//
// Cancel only marks its slot dead. Dead slots are dropped when they are
// taken out or moved between buckets, or all at once when they outnumber
// the live ones (and a small floor): the lists are then filtered in
// O(n), so a cancel-and-re-arm timer pattern keeps the queue at about
// twice the live event count instead of one entry per cancel.
//
// Reserve and AtKey split scheduling in two: Reserve fixes an event's key
// now, AtKey puts a callback into the queue under it later. A FIFO
// producer (a propagation pipe) reserves a key per item but keeps only
// its head in the queue, and still fires each item exactly where At
// would have put it.
package des

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/obs"
)

// compactFloor is the number of dead slots below which Cancel never
// compacts: small queues simply drop their dead slots as they surface.
const compactFloor = 32

// Simulator owns the virtual clock and the pending-event queue. The zero
// value is ready to use.
type Simulator struct {
	now time.Duration
	// cells is the slot arena, indexed by slot id.
	cells []cell
	free  []int32

	// The radix queue. last is its base: every queued time is at or
	// after it, and between calls it is never past the clock.
	// ready[readyHead:] are the slots at last in seq order. When bit i of
	// full is set, heads[i] starts bucket i's list and mins[i] is the
	// earliest time filed there since it was last empty, a lower bound on
	// its times (a cancelled slot's time may linger there after
	// compaction, which only costs a refill that finds nothing ready).
	last      time.Duration
	ready     []int32
	readyHead int
	heads     [64]int32
	mins      [64]time.Duration
	full      uint64
	queued    int // slots in the queue, dead ones included
	dead      int // cancelled slots still queued

	seq uint64
	// floor is the smallest key that may still be scheduled: just past
	// the event being fired (past every key reserved so far, for a late
	// event), or at the clock after RunUntil advanced it.
	floor Key
	stop  bool

	// Observability instruments (nil when not instrumented; every update
	// below is a nil-safe no-op then). Counters are updated on the
	// scheduling paths; the queue-depth gauge tracks the queued slot
	// count, cancelled slots included, since that is what bounds memory.
	mScheduled *obs.Counter
	mFired     *obs.Counter
	mPooled    *obs.Counter
	mHeapDepth *obs.Gauge
}

// cell is one arena slot: the event's callback (nil once fired,
// cancelled or free), its key, its tenancy generation and the next slot
// in its bucket (-1 ends the list).
type cell struct {
	fn func()
	Key
	gen  uint32
	next int32
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
	free := s.free[:0]
	for id := len(s.cells) - 1; id >= 0; id-- {
		s.cells[id].fn = nil
		s.cells[id].gen++
		free = append(free, int32(id))
	}
	*s = Simulator{cells: s.cells, free: free, ready: s.ready[:0]}
}

// Instrument binds the simulator's kernel metrics to reg:
//
//   - des_events_scheduled counts At/After/AtLate calls and reserved keys
//     (Reserve counts, the AtKey that later uses the key does not);
//   - des_events_fired counts callbacks run;
//   - des_events_pooled counts slots returned to the free list: a fired
//     slot just before its callback runs, a cancelled one when it is
//     taken out, when its bucket is emptied or when compaction filters
//     it out;
//   - gauge des_heap_depth is the number of queued slots, dead slots
//     included (the name predates the radix queue).
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
// sequence number (scheduling order, or late | rank).
type Key struct {
	at  time.Duration
	seq uint64
}

// late is the seq bit of a late event's key.
const late = 1 << 63

// before reports whether k fires before o.
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
	if s == nil {
		return
	}
	c := &s.cells[t.id]
	if c.gen != t.gen || c.fn == nil {
		return
	}
	c.fn = nil
	s.dead++
	if s.dead > compactFloor && 2*s.dead > s.queued {
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

// AtLate schedules fn at absolute time t (clamped to the present like
// At) as a late event: it fires after every other event at t, late
// events at one instant in rank order. rank must be below 1<<63 and
// unique among the late events pending at t. An event scheduled at the
// present from inside a late event still fires before the late events
// left at this instant.
func (s *Simulator) AtLate(t time.Duration, rank uint64, fn func()) Timer {
	s.mScheduled.Inc()
	return s.schedule(Key{at: max(t, s.now), seq: late | rank}, fn)
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
// queues it under k.
func (s *Simulator) schedule(k Key, fn func()) Timer {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = int32(len(s.cells))
		s.cells = append(s.cells, cell{})
	}
	c := &s.cells[id]
	c.fn = fn
	c.Key = k
	s.enqueue(id)
	s.queued++
	s.mHeapDepth.Set(int64(s.queued))
	return Timer{sim: s, id: id, gen: c.gen}
}

// recycle returns a slot to the free list, bumping its generation so
// stale Timers can no longer touch it.
func (s *Simulator) recycle(id int32) {
	c := &s.cells[id]
	c.fn = nil
	c.gen++
	s.free = append(s.free, id)
	s.mPooled.Inc()
}

// drop takes a dead slot out of the queue's count and recycles it.
func (s *Simulator) drop(id int32) {
	s.recycle(id)
	s.dead--
	s.queued--
	s.mHeapDepth.Set(int64(s.queued))
}

// Step fires the next pending event, advancing the clock to it. It reports
// whether an event was fired.
func (s *Simulator) Step() bool {
	for {
		var id int32
		if s.readyHead < len(s.ready) {
			id = s.take()
		} else if b := bits.TrailingZeros64(s.full); s.full != 0 && s.cells[s.heads[b]].next < 0 {
			// A lone slot in the lowest bucket is the earliest: take it
			// without passing it through the ready list.
			id = s.heads[b]
			s.full &^= 1 << b
			s.last = s.cells[id].at
		} else {
			if _, ok := s.settle(math.MaxInt64); !ok {
				return false
			}
			continue
		}
		c := &s.cells[id]
		if c.fn == nil {
			s.drop(id) // cancelled
			continue
		}
		fn, k := c.fn, c.Key
		// Recycle before firing: the callback frequently schedules a
		// follow-up event, which can then reuse this slot immediately.
		s.recycle(id)
		s.queued--
		s.mHeapDepth.Set(int64(s.queued))
		s.now = k.at
		if k.seq&late != 0 {
			// A key reserved from here on, at this instant too, may
			// still be scheduled: it fires before the late events left.
			s.floor = Key{at: k.at, seq: s.seq}
		} else {
			s.floor = Key{at: k.at, seq: k.seq + 1}
		}
		s.mFired.Inc()
		fn()
		return true
	}
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
		next, ok := s.peekTime(t)
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
func (s *Simulator) Pending() int { return s.queued - s.dead }

// peekTime returns the time of the earliest live event, dropping the dead
// slots ahead of it. The queue's base moves only to a time at or before
// bound: RunUntil(bound) may leave the clock at bound, and a base past
// the clock would misfile the events scheduled next. A time past bound
// is therefore only a bucket's lower bound: every live event is at or
// after it.
func (s *Simulator) peekTime(bound time.Duration) (time.Duration, bool) {
	for {
		if s.readyHead < len(s.ready) {
			id := s.ready[s.readyHead]
			if s.cells[id].fn != nil {
				return s.last, true
			}
			s.drop(s.take())
			continue
		}
		m, ok := s.settle(bound)
		if !ok || m > bound {
			return m, ok
		}
	}
}

// enqueue files a queued slot: at the base into the ready list, in seq
// order, later into the bucket of the highest bit its time differs from
// the base in.
func (s *Simulator) enqueue(id int32) {
	c := &s.cells[id]
	x := uint64(c.at ^ s.last)
	if x != 0 {
		s.link(id, bits.Len64(x)-1)
		return
	}
	// A new key goes last but for late events, which it moves ahead of;
	// a key reserved before some ready slot was scheduled moves ahead
	// of that one too.
	s.ready = append(s.ready, id)
	r := s.ready
	j := len(r) - 1
	for j > s.readyHead && s.cells[r[j-1]].seq > c.seq {
		r[j] = r[j-1]
		j--
	}
	r[j] = id
}

// link pushes slot id onto bucket b's list.
func (s *Simulator) link(id int32, b int) {
	c := &s.cells[id]
	if s.full&(1<<b) != 0 {
		c.next = s.heads[b]
		s.mins[b] = min(s.mins[b], c.at)
	} else {
		c.next = -1
		s.mins[b] = c.at
		s.full |= 1 << b
	}
	s.heads[b] = id
}

// take removes and returns the first ready slot.
func (s *Simulator) take() int32 {
	id := s.ready[s.readyHead]
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	return id
}

// settle refills the empty ready list from the lowest non-empty bucket
// and returns that bucket's minimum m, or false when the queue is empty.
// Only when m is at or before bound does it empty the bucket: m becomes
// the base, the live slots at m become ready in seq order and the others
// fall into lower buckets, while dead ones are dropped. An empty queue
// takes the clock as its base, since the last slot taken out may have
// been a dead one past the clock.
func (s *Simulator) settle(bound time.Duration) (time.Duration, bool) {
	if s.full == 0 {
		s.last = s.now
		return 0, false
	}
	b := bits.TrailingZeros64(s.full)
	m := s.mins[b]
	if m > bound {
		return m, true
	}
	s.full &^= 1 << b
	s.last = m
	for id := s.heads[b]; id >= 0; {
		c := &s.cells[id]
		next := c.next
		switch {
		case c.fn == nil:
			s.drop(id)
		case c.at == m:
			s.ready = append(s.ready, id)
		default:
			s.link(id, bits.Len64(uint64(c.at^m))-1)
		}
		id = next
	}
	if len(s.ready) > 1 {
		s.sortReady()
	}
	return m, true
}

// sortReady puts a refilled ready list in seq order. Its slots come in
// list order, mostly one run pushed in seq order and read back reversed,
// so the list is reversed first when its ends say so; slices.SortFunc
// then finishes nearly sorted input in linear time.
func (s *Simulator) sortReady() {
	r := s.ready
	if s.cells[r[0]].seq > s.cells[r[len(r)-1]].seq {
		slices.Reverse(r)
	}
	slices.SortFunc(r, func(a, b int32) int {
		return cmp.Compare(s.cells[a].seq, s.cells[b].seq)
	})
}

// compact drops every dead slot from the queue at once, filtering the
// ready list in place and relinking each bucket's live slots.
func (s *Simulator) compact() {
	live := s.ready[:0]
	for _, id := range s.ready[s.readyHead:] {
		if s.cells[id].fn == nil {
			s.recycle(id)
			continue
		}
		live = append(live, id)
	}
	s.ready, s.readyHead = live, 0
	for m := s.full; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		head := int32(-1)
		for id := s.heads[b]; id >= 0; {
			c := &s.cells[id]
			next := c.next
			if c.fn == nil {
				s.recycle(id)
			} else {
				c.next = head
				head = id
			}
			id = next
		}
		if head < 0 {
			s.full &^= 1 << b
		} else {
			s.heads[b] = head
		}
	}
	s.queued -= s.dead
	s.dead = 0
	s.mHeapDepth.Set(int64(s.queued))
}
