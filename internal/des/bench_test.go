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

// BenchmarkFanInMix mirrors the event mix of a chunk-level fan-in run,
// where request ticks, transmission completions and pipe arrivals are a
// third of the events each. 64 request loops reschedule themselves every
// millisecond or so and send one packet each tick through one of 9 arcs.
// An arc's serializer schedules a txDone per packet; its propagation
// pipe reserves each packet's arrival key but keeps only the head
// arrival queued (Reserve/AtKey); every arrival cancels and re-arms its
// flow's 200 ms retransmission timer.
func BenchmarkFanInMix(b *testing.B) {
	b.ReportAllocs()
	const (
		flows   = 64
		horizon = 100 * time.Millisecond
	)
	for i := 0; i < b.N; i++ {
		s := New()
		rto := make([]Timer, flows)
		arcs := make([]*mixArc, 9)
		for j := range arcs {
			// 1024 entries outlast the run's ~712 packets per arc, so
			// popping by reslicing never reallocates.
			a := &mixArc{s: s, rto: rto, queue: make([]int, 0, 1024),
				pipe: make([]Key, 0, 1024), inFlight: make([]int, 0, 1024)}
			a.txDoneFn, a.arriveFn = a.txDone, a.arrive
			arcs[j] = a
		}
		for f := 0; f < flows; f++ {
			a := arcs[f%len(arcs)]
			period := time.Millisecond + time.Duration(f%8)*time.Microsecond
			var tick func()
			tick = func() {
				a.send(f)
				s.After(period, tick)
			}
			s.At(time.Duration(f)*time.Microsecond, tick)
			rto[f] = s.After(mixRTO, mixNoop)
		}
		s.RunUntil(horizon)
	}
}

const (
	mixTx    = 12 * time.Microsecond
	mixDelay = 5 * time.Millisecond
	mixRTO   = 200 * time.Millisecond
)

func mixNoop() {}

// mixArc is one arc of BenchmarkFanInMix: a serializer queue and a
// propagation pipe whose head arrival alone is queued in the simulator.
type mixArc struct {
	s        *Simulator
	rto      []Timer // every flow's retransmission timer
	queue    []int   // flows whose packet waits for the serializer
	pipe     []Key   // reserved arrival keys, oldest first
	inFlight []int   // the flow of each pipe entry
	busy     bool

	txDoneFn, arriveFn func()
}

func (a *mixArc) send(flow int) {
	a.queue = append(a.queue, flow)
	if !a.busy {
		a.busy = true
		a.s.After(mixTx, a.txDoneFn)
	}
}

func (a *mixArc) txDone() {
	flow := a.queue[0]
	a.queue = a.queue[1:]
	k := a.s.Reserve(a.s.Now() + mixDelay)
	a.pipe = append(a.pipe, k)
	a.inFlight = append(a.inFlight, flow)
	if len(a.pipe) == 1 {
		a.s.AtKey(k, a.arriveFn)
	}
	if len(a.queue) > 0 {
		a.s.After(mixTx, a.txDoneFn)
	} else {
		a.busy = false
	}
}

func (a *mixArc) arrive() {
	flow := a.inFlight[0]
	a.pipe, a.inFlight = a.pipe[1:], a.inFlight[1:]
	if len(a.pipe) > 0 {
		a.s.AtKey(a.pipe[0], a.arriveFn)
	}
	a.rto[flow].Cancel()
	a.rto[flow] = a.s.After(mixRTO, mixNoop)
}
