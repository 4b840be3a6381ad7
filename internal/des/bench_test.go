package des

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j%97)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

func BenchmarkNestedCascade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		n := 0
		var next func()
		next = func() {
			n++
			if n < 10000 {
				s.After(time.Microsecond, next)
			}
		}
		s.After(0, next)
		s.Run()
	}
}

// BenchmarkCancelRearm is AIMD's retransmission-timer pattern: 64 timers,
// each cancelled and re-armed 200 ms out on every 1 ms tick, for 1000
// ticks. Without compaction every cancel would leave a dead slot in the
// heap until its deadline.
func BenchmarkCancelRearm(b *testing.B) {
	b.ReportAllocs()
	noop := func() {}
	for i := 0; i < b.N; i++ {
		s := New()
		var timers [64]Timer
		ticks := 0
		var tick func()
		tick = func() {
			for j := range timers {
				timers[j].Cancel()
				timers[j] = s.After(200*time.Millisecond, noop)
			}
			if ticks++; ticks < 1000 {
				s.After(time.Millisecond, tick)
			}
		}
		s.After(0, tick)
		s.Run()
	}
}
