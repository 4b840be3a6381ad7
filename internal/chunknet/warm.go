package chunknet

import (
	"math/rand"
	"sync"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/units"
)

// A sweep builds thousands of short Sims back to back on each worker. So
// that each one does not regrow its arrays from empty, a Sim that
// finishes Run hands its buffers to warmPool and the next New takes them
// back. Every buffer is reset before reuse — the DES returns to its New
// state, stores and queues are emptied, packets are zeroed when freed,
// and a stream is re-seeded, which restarts exactly the sequence
// rand.New(rand.NewSource(seed)) gives — so no output depends on which
// Sim ran before. The Report a finished Run returned stays valid: it
// lives in the Sim, and the Sim itself is never reused.

// warmBufs is one set of buffers passed from a finished Sim to the next.
type warmBufs struct {
	des    *des.Simulator
	pkts   []*packet // the packet free list, every entry zeroed
	stores []*cache.Custody
	pktqs  [][]*packet // empty, cleared pktq arrays
	pipes  [][]*packet // empty, cleared pipe arrays
	rngs   []*rand.Rand
	arcs   []*arcState // zeroed but for the callbacks bound to each
}

var warmPool = sync.Pool{New: func() any { return &warmBufs{des: des.New()} }}

// pop removes and returns the last element of *list, or the zero value
// when the list is empty.
func pop[T any](list *[]T) T {
	var v T
	if n := len(*list); n > 0 {
		v = (*list)[n-1]
		*list = (*list)[:n-1]
	}
	return v
}

// store returns an empty custody store of the given capacity.
func (w *warmBufs) store(capacity units.ByteSize) *cache.Custody {
	c := pop(&w.stores)
	if c == nil {
		return cache.NewCustody(capacity)
	}
	c.Reset(capacity)
	return c
}

// arc returns a zeroed arc state with its callbacks bound to it.
func (w *warmBufs) arc() *arcState {
	a := pop(&w.arcs)
	if a == nil {
		a = &arcState{}
		a.bind()
	}
	return a
}

// rand returns a stream seeded with seed.
func (w *warmBufs) rand(seed int64) *rand.Rand {
	r := pop(&w.rngs)
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// release hands the finished Sim's buffers to warmPool. The Sim is
// unusable afterwards: its DES, arcs, stores and streams are gone, so a
// stray call panics instead of touching another run.
func (s *Sim) release() {
	w := s.warm
	s.warm = nil
	w.des.Reset()
	s.des = nil
	w.pkts, s.pktFree = s.pktFree, nil
	for _, a := range s.arcs {
		if a == nil {
			continue
		}
		w.stores = append(w.stores, a.store)
		// The queued and in-flight packets die with the run; clear them
		// so the pooled arrays do not keep them alive.
		if cap(a.pktq) > 0 {
			clear(a.pktq[:cap(a.pktq)])
			w.pktqs = append(w.pktqs, a.pktq[:0])
		}
		if cap(a.pipe) > 0 {
			clear(a.pipe[:cap(a.pipe)])
			w.pipes = append(w.pipes, a.pipe[:0])
		}
		for _, r := range [...]*rand.Rand{a.churnRng, a.lossRng} {
			if r != nil {
				w.rngs = append(w.rngs, r)
			}
		}
		// Zero the rest, so the pooled arc keeps nothing of this run
		// alive, but keep the callbacks: they are bound to a itself.
		*a = arcState{txDoneFn: a.txDoneFn, arriveFn: a.arriveFn, churnFn: a.churnFn}
		w.arcs = append(w.arcs, a)
	}
	s.arcs = nil
	for _, grp := range s.srlgs {
		if grp.rng != nil {
			w.rngs = append(w.rngs, grp.rng)
			grp.rng = nil
		}
	}
	warmPool.Put(w)
}
