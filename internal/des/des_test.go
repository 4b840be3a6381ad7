package des

import (
	"math/rand"

	"repro/internal/obs"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestOrdering(t *testing.T) {
	s := New()
	var fired []int
	s.After(3*time.Second, func() { fired = append(fired, 3) })
	s.After(1*time.Second, func() { fired = append(fired, 1) })
	s.After(2*time.Second, func() { fired = append(fired, 2) })
	s.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired order = %v, want [1 2 3]", fired)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("final time = %v, want 3s", s.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	s := New()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { fired = append(fired, i) })
	}
	s.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", fired)
		}
	}
}

// TestLateEvents: late events fire after every other event at their
// instant, in rank order, whatever order they were scheduled in. An
// At(now), and a Reserve(now) scheduled with AtKey, made inside a late
// event do not panic and fire before the late events left at now.
func TestLateEvents(t *testing.T) {
	for _, c := range []struct {
		name   string
		nested func(s *Simulator, fn func())
	}{
		{"At", func(s *Simulator, fn func()) { s.At(s.Now(), fn) }},
		{"Reserve+AtKey", func(s *Simulator, fn func()) { s.AtKey(s.Reserve(s.Now()), fn) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			var got []string
			log := func(name string) func() { return func() { got = append(got, name) } }
			s.AtLate(time.Second, 2, log("late2"))
			s.AtLate(time.Second, 0, func() {
				got = append(got, "late0")
				c.nested(s, func() {
					got = append(got, "nested")
					// A late event at the present from inside the
					// nested one still goes in rank order.
					s.AtLate(s.Now(), 1, log("late1"))
				})
			})
			s.At(time.Second, log("first"))
			s.After(time.Second, func() {
				got = append(got, "second")
				s.At(s.Now(), log("third"))
			})
			s.AtLate(time.Second, 3, log("late3"))
			s.Run()
			want := []string{"first", "second", "third", "late0", "nested", "late1", "late2", "late3"}
			if !slices.Equal(got, want) {
				t.Errorf("fired %v, want %v", got, want)
			}
		})
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var log []time.Duration
	s.After(time.Second, func() {
		log = append(log, s.Now())
		s.After(time.Second, func() {
			log = append(log, s.Now())
		})
	})
	s.Run()
	if len(log) != 2 || log[0] != time.Second || log[1] != 2*time.Second {
		t.Errorf("nested log = %v", log)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New()
	s.After(5*time.Second, func() {
		s.At(time.Second, func() {
			if s.Now() != 5*time.Second {
				t.Errorf("past event fired at %v, want clamp to 5s", s.Now())
			}
		})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	timer := s.After(time.Second, func() { fired = true })
	timer.Cancel()
	timer.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	var zeroTimer Timer
	zeroTimer.Cancel() // must not panic
}

// TestStaleTimerCancel pins the pooled-event safety property: cancelling
// a timer whose event already fired — and whose event object has since
// been reused by a newer scheduling — must not cancel the new tenant.
func TestStaleTimerCancel(t *testing.T) {
	s := New()
	firstFired, secondFired := false, false
	stale := s.After(time.Second, func() { firstFired = true })
	s.Run()
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// This scheduling reuses the pooled event object the stale timer
	// still points at.
	s.After(time.Second, func() { secondFired = true })
	stale.Cancel() // must be a no-op: its generation has passed
	s.Run()
	if !secondFired {
		t.Error("stale Cancel clobbered a reused event")
	}
}

// TestReset: a reset simulator drops its pending events and instruments,
// restarts its clock, leaves every earlier Timer inert, and keeps its
// arrays — scheduling into them again allocates nothing.
func TestReset(t *testing.T) {
	reg := obs.New("des")
	s := New()
	s.Instrument(reg)
	var fired []int
	var stale []Timer
	for i := 0; i < 64; i++ {
		stale = append(stale, s.After(time.Duration(i)*time.Millisecond, func() { fired = append(fired, -1) }))
	}
	s.RunUntil(20 * time.Millisecond)
	fired = fired[:0]
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 {
		t.Fatalf("after Reset: now %v, %d pending; want 0, 0", s.Now(), s.Pending())
	}
	fn := func() { fired = append(fired, 0) }
	// AllocsPerRun calls the function twice: 32 events in all.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 16; i++ {
			s.At(time.Duration(32-i)*time.Millisecond, fn)
		}
	})
	if allocs > 0 {
		t.Errorf("scheduling into reset arrays allocates %.1f objects, want 0", allocs)
	}
	for _, tm := range stale {
		tm.Cancel()
	}
	if s.Pending() != 32 {
		t.Fatalf("a pre-Reset Timer cancelled a new event: %d of 32 pending", s.Pending())
	}
	scheduled := reg.Snapshot().Counters["des_events_scheduled"]
	s.Run()
	if len(fired) != 32 || slices.Contains(fired, -1) {
		t.Errorf("after Reset fired %v, want 32 new events and none of the old", fired)
	}
	if got := reg.Snapshot().Counters["des_events_scheduled"]; got != scheduled {
		t.Errorf("a reset simulator still counts into its old registry: %d, then %d", scheduled, got)
	}
}

// TestScheduleAllocFree verifies the steady-state scheduling path reuses
// pooled events instead of allocating.
func TestScheduleAllocFree(t *testing.T) {
	s := New()
	// Warm the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i%7)*time.Millisecond, func() {})
		}
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state scheduling allocates %.1f objects per run, want 0", allocs)
	}
	checkRearmAllocFree(t, s)
}

// checkRearmAllocFree extends the allocation contract to the
// cancel-and-re-arm pattern of retransmission timers, whose cancelled
// slots are recycled through compaction.
func checkRearmAllocFree(t *testing.T, s *Simulator) {
	t.Helper()
	noop := func() {}
	var timers [64]Timer
	rearm := func() {
		for i := range timers {
			timers[i].Cancel()
			timers[i] = s.After(time.Second, noop)
		}
		s.RunUntil(s.Now() + time.Millisecond)
	}
	for i := 0; i < 8; i++ { // warm the arena and the heap
		rearm()
	}
	if allocs := testing.AllocsPerRun(100, rearm); allocs > 0 {
		t.Errorf("steady-state cancel-and-re-arm allocates %.1f objects per run, want 0", allocs)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Errorf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2500*time.Millisecond {
		t.Errorf("clock = %v, want 2.5s", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %d, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Errorf("Stop did not halt run: count = %d", count)
	}
	s.Run() // resume
	if count != 5 {
		t.Errorf("resume failed: count = %d", count)
	}
}

func TestHeapPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 1 + rng.Intn(200)
		times := make([]time.Duration, n)
		var fired []time.Duration
		for i := range times {
			times[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
			d := times[i]
			s.At(d, func() { fired = append(fired, d) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		sorted := append([]time.Duration(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInstrument verifies the kernel metrics: scheduled/fired/pooled
// counters and the heap-depth gauge, and that binding a registry does not
// change execution.
func TestInstrument(t *testing.T) {
	reg := obs.New("des")
	s := New()
	s.Instrument(reg)
	var fired []int
	s.After(2*time.Second, func() { fired = append(fired, 2) })
	s.After(1*time.Second, func() { fired = append(fired, 1) })
	timer := s.After(3*time.Second, func() { fired = append(fired, 3) })
	if got := reg.Gauge("des_heap_depth").Value(); got != 3 {
		t.Errorf("heap depth = %d, want 3", got)
	}
	timer.Cancel()
	s.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("instrumented run fired %v, want [1 2]", fired)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["des_events_scheduled"]; got != 3 {
		t.Errorf("scheduled = %d, want 3", got)
	}
	if got := snap.Counters["des_events_fired"]; got != 2 {
		t.Errorf("fired = %d, want 2 (cancelled event must not count)", got)
	}
	if got := snap.Counters["des_events_pooled"]; got != 3 {
		t.Errorf("pooled = %d, want 3 (fired and cancelled events recycle)", got)
	}
	if got := snap.Gauges["des_heap_depth"]; got != 0 {
		t.Errorf("final heap depth = %d, want 0", got)
	}
}

// TestInstrumentedScheduleAllocFree pins that an *enabled* registry keeps
// the steady-state scheduling path allocation-free too: counter and gauge
// updates are plain atomics.
func TestInstrumentedScheduleAllocFree(t *testing.T) {
	s := New()
	s.Instrument(obs.New("des"))
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i%7)*time.Millisecond, func() {})
		}
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("instrumented scheduling allocates %.1f objects per run, want 0", allocs)
	}
	checkRearmAllocFree(t, s)
}
