package des

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The oracle below checks the kernel against its specification rather
// than against an older implementation. Every event gets the key
// (max(t, now), n), n counting At/After/Reserve calls, and a late event
// (max(t, now), 1<<63 | rank); live events must fire in key order, each
// at its own time, cancelled ones never; Pending is the live count after
// every step. The reference is a plain list scanned for its minimum.

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	key   Key
	timer Timer
	live  bool
	nest  byte // what the callback does when it fires (see fire)
}

// oracle drives a Simulator and the reference side by side from a byte
// stream; every decision (operation, time, nesting) is read from it.
type oracle struct {
	t   *testing.T
	s   *Simulator
	in  []byte
	pos int

	events   []*refEvent
	reserved []Key
	seq      uint64
	floor    Key // smallest key AtKey may still use
	fired    int
	stopAt   int // Stop once fired reaches this (0: never)

	compactions int
}

func (o *oracle) next() byte {
	if o.pos >= len(o.in) {
		return 0
	}
	b := o.in[o.pos]
	o.pos++
	return b
}

// dt draws a small duration, so equal times (ties broken by seq) are
// common.
func (o *oracle) dt() time.Duration { return time.Duration(o.next()%64) * time.Millisecond }

func (o *oracle) live() int {
	n := 0
	for _, e := range o.events {
		if e.live {
			n++
		}
	}
	return n
}

// min returns the live reference event that must fire next.
func (o *oracle) min() *refEvent {
	var m *refEvent
	for _, e := range o.events {
		if e.live && (m == nil || e.key.before(m.key)) {
			m = e
		}
	}
	return m
}

// refKey is the key the spec assigns to a scheduling at time at now.
func (o *oracle) refKey(at time.Duration) Key {
	if now := o.s.Now(); at < now {
		at = now
	}
	k := Key{at: at, seq: o.seq}
	o.seq++
	return k
}

func (o *oracle) add(k Key, schedule func(fn func()) Timer) {
	e := &refEvent{key: k, live: true, nest: o.next()}
	o.events = append(o.events, e)
	e.timer = schedule(func() { o.fire(e) })
}

// fire runs as the callback of e: it must be the reference minimum and
// fire at its own time. Some callbacks schedule or cancel in turn.
func (o *oracle) fire(e *refEvent) {
	if !e.live {
		o.t.Fatalf("cancelled or already fired event %v fired", e.key)
	}
	if m := o.min(); m != e {
		o.t.Fatalf("fired %v, want %v", e.key, m.key)
	}
	if o.s.Now() != e.key.at {
		o.t.Fatalf("event %v fired at %v", e.key, o.s.Now())
	}
	e.live = false
	if e.key.seq&late != 0 {
		o.floor = Key{at: e.key.at, seq: o.seq}
	} else {
		o.floor = Key{at: e.key.at, seq: e.key.seq + 1}
	}
	o.fired++
	switch e.nest % 8 { // 0, what an exhausted stream reads, does nothing
	case 1:
		o.at()
	case 2:
		o.cancel()
	case 3:
		o.late()
	case 4:
		// A key reserved at the present and scheduled at once, which
		// a late event must accept too.
		k := o.refKey(o.s.Now())
		if got := o.s.Reserve(o.s.Now()); got != k {
			o.t.Fatalf("Reserve(now) = %v, want %v", got, k)
		}
		o.add(k, func(fn func()) Timer { return o.s.AtKey(k, fn) })
	}
	if o.fired == o.stopAt {
		o.s.Stop()
	}
}

func (o *oracle) at() {
	t := o.s.Now() + o.dt() - 4*time.Millisecond // sometimes in the past
	o.add(o.refKey(t), func(fn func()) Timer { return o.s.At(t, fn) })
}

// late schedules a late event of a small rank, sometimes in the past. A
// rank already pending at that instant is skipped: ranks must be unique.
func (o *oracle) late() {
	t := o.s.Now() + o.dt() - 4*time.Millisecond
	rank := uint64(o.next() % 8)
	k := Key{at: max(t, o.s.Now()), seq: late | rank}
	for _, e := range o.events {
		if e.live && e.key == k {
			return
		}
	}
	o.add(k, func(fn func()) Timer { return o.s.AtLate(t, rank, fn) })
}

// cancel cancels one of the 64 most recently issued timers, live, fired
// or already cancelled (the last two must be no-ops).
func (o *oracle) cancel() {
	if len(o.events) == 0 {
		return
	}
	e := o.events[len(o.events)-1-int(o.next())%min(64, len(o.events))]
	before := o.s.queued
	e.timer.Cancel()
	e.live = false
	if o.s.queued < before {
		o.compactions++
	}
}

// rearm cancels the newest live timer and schedules a replacement, the
// RTO pattern of a transport that re-arms its timeout on every ACK.
func (o *oracle) rearm() {
	for i := len(o.events) - 1; i >= 0; i-- {
		if e := o.events[i]; e.live {
			e.timer.Cancel()
			e.live = false
			break
		}
	}
	d := o.dt()
	o.add(o.refKey(o.s.Now()+d), func(fn func()) Timer { return o.s.After(d, fn) })
}

func (o *oracle) atKey() {
	if len(o.reserved) == 0 {
		return
	}
	k := o.reserved[0]
	o.reserved = o.reserved[1:]
	if k.before(o.floor) {
		defer func() {
			if recover() == nil {
				o.t.Fatalf("AtKey(%v) with floor %v did not panic", k, o.floor)
			}
		}()
		o.s.AtKey(k, func() {})
		return
	}
	o.add(k, func(fn func()) Timer { return o.s.AtKey(k, fn) })
}

// runUntil runs to t and checks nothing due is left behind. Every key
// at or before t reserved so far is then passed.
func (o *oracle) runUntil(t time.Duration) {
	o.s.RunUntil(t)
	if m := o.min(); m != nil && m.key.at <= t {
		o.t.Fatalf("RunUntil(%v) left %v pending", t, m.key)
	}
	if o.s.Now() != t {
		o.t.Fatalf("RunUntil(%v) left clock at %v", t, o.s.Now())
	}
	o.floor = Key{at: t, seq: o.seq}
}

func (o *oracle) step() {
	switch o.next() % 13 {
	case 0, 1, 9:
		o.at()
	case 2, 10:
		d := o.dt()
		o.add(o.refKey(o.s.Now()+d), func(fn func()) Timer { return o.s.After(d, fn) })
	case 3, 4:
		o.cancel()
	case 11:
		for n := o.next() % 48; n > 0; n-- {
			o.rearm()
		}
	case 5:
		t := o.s.Now() + o.dt()
		o.reserved = append(o.reserved, o.refKey(t))
		if got := o.s.Reserve(t); got != o.reserved[len(o.reserved)-1] {
			o.t.Fatalf("Reserve(%v) = %v, want %v", t, got, o.reserved[len(o.reserved)-1])
		}
	case 6:
		o.atKey()
	case 7:
		o.runUntil(o.s.Now() + o.dt()/16)
	case 12:
		o.late()
	case 8:
		o.stopAt = o.fired + 1 + int(o.next()%4)
		o.s.Run()
		if o.fired != o.stopAt && o.live() != 0 {
			o.t.Fatalf("Run returned after %d fires with %d live, Stop was due at %d",
				o.fired, o.live(), o.stopAt)
		}
		o.stopAt = 0
	}
}

// runOracle drives the op stream in, then drains the simulator.
func runOracle(t *testing.T, in []byte) *oracle {
	o := &oracle{t: t, s: New(), in: in}
	for o.pos < len(o.in) {
		o.step()
		if got, want := o.s.Pending(), o.live(); got != want {
			t.Fatalf("after op %d: Pending = %d, want %d", o.pos, got, want)
		}
	}
	o.s.Run()
	if n := o.live(); n != 0 || o.s.Pending() != 0 {
		t.Fatalf("drained run left %d live reference events, Pending %d", n, o.s.Pending())
	}
	return o
}

func TestScheduleOracle(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 40; seed++ {
		in := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(in)
		o := runOracle(t, in)
		compactions += o.compactions
	}
	t.Logf("%d compactions", compactions)
	if compactions == 0 {
		t.Error("no Cancel compacted the heap; the oracle missed that path")
	}
}

// TestCancelCompactsHeap pins the heap bound of the cancel-and-re-arm
// pattern: 64 timers re-armed 200 times each leave the heap near its
// live count, not one dead slot per cancel.
func TestCancelCompactsHeap(t *testing.T) {
	s := New()
	timers := make([]Timer, 64)
	for i := range timers {
		timers[i] = s.After(time.Second, func() {})
	}
	for r := 0; r < 200; r++ {
		for i := range timers {
			timers[i].Cancel()
			timers[i] = s.After(time.Second, func() {})
		}
	}
	if got := s.Pending(); got != len(timers) {
		t.Fatalf("Pending = %d, want %d", got, len(timers))
	}
	if n := s.queued; n > 2*len(timers)+compactFloor+1 {
		t.Errorf("heap holds %d slots for %d live timers", n, len(timers))
	}
}

// TestQueueBaseBehindClock pins the radix queue's invariant that its
// base never passes the clock, in the two places it could. Each case
// leaves the clock below a slot's time that the queue may take as its
// base, then schedules between the two; events must fire in time order.
func TestQueueBaseBehindClock(t *testing.T) {
	ms := time.Millisecond
	var fired []time.Duration
	at := func(s *Simulator, ts ...time.Duration) {
		for _, d := range ts {
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
	}
	check := func(t *testing.T, s *Simulator, want ...time.Duration) {
		t.Helper()
		s.Run()
		if !slices.Equal(fired, want) {
			t.Errorf("fired at %v, want %v", fired, want)
		}
	}
	// Run drops a dead slot at 10 ms and empties the queue, then the
	// clock stops at 2 ms: the empty queue must not keep 10 ms as base.
	// 9 ms shares bit 23 with 10 ms and 8, 5 and 2 ms do not, so on a
	// 10 ms base 9 ms would file in a lower bucket and fire first.
	t.Run("drained", func(t *testing.T) {
		fired = nil
		s := New()
		s.At(10*ms, func() { t.Error("cancelled event fired") }).Cancel()
		s.Run()
		s.RunUntil(2 * ms)
		at(s, 9*ms, 8*ms, 5*ms, 2*ms)
		check(t, s, 2*ms, 5*ms, 8*ms, 9*ms)
	})
	// RunUntil(5 ms) sees the event at 10 ms and stops short of it: had
	// the peek made 10 ms the base, the 10 ms event would be ready and
	// fire before the one scheduled at 6 ms.
	t.Run("peeked", func(t *testing.T) {
		fired = nil
		s := New()
		at(s, 10*ms)
		s.RunUntil(5 * ms)
		at(s, 6*ms)
		check(t, s, 6*ms, 10*ms)
	})
}

func TestAtKeyPassedPanics(t *testing.T) {
	s := New()
	early := s.Reserve(time.Second)
	s.After(2*time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("AtKey with a key before the last fired event did not panic")
		}
	}()
	s.AtKey(early, func() {})
}

func TestAtKeyAfterRunUntilPanics(t *testing.T) {
	s := New()
	k := s.Reserve(time.Second)
	s.RunUntil(time.Second) // k was due, but nothing was scheduled under it
	defer func() {
		if recover() == nil {
			t.Error("AtKey with a key the clock already passed did not panic")
		}
	}()
	s.AtKey(k, func() {})
}

func FuzzSchedule(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		in := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		runOracle(t, in)
	})
}
