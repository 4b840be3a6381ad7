package core

import (
	"time"

	"repro/internal/units"
)

// IfaceID indexes an interface within one router.
type IfaceID int

// Estimator implements the anticipated-rate computation of §3.3 (eq. 1).
//
// Each interface records the requests it forwards upstream, keyed by the
// interface through which the corresponding data will return. At the end
// of every measurement interval Ti, the router's "central management
// entity" sums, for each interface i, the requests whose data will exit
// through i, yielding the anticipated rate
//
//	r_a(i) = chunkSize · reqs(i) / Ti
//
// Eq. 1 weights each forwarding interface j's requests by the ratio
// y_{j→i}; summed over j, that is just the number of requests whose data
// returns through i, so the estimator keeps one count per interface.
// Ti is meant to approximate the average RTT of data chunks (footnote
// 4); callers may update it between intervals via SetInterval.
type Estimator struct {
	interval  time.Duration
	chunkSize units.ByteSize

	// reqs[i] = chunks requested during the current interval whose data
	// will return through interface i. The counts are whole numbers below
	// 2^53, so they are exact in float64.
	reqs []float64
	// rates[i] = anticipated rate of interface i from the last closed
	// interval.
	rates []units.BitRate

	windowStart time.Duration
}

// NewEstimator returns an estimator for a router with n interfaces,
// expecting data chunks of the given size, measuring over interval Ti.
func NewEstimator(n int, chunkSize units.ByteSize, interval time.Duration) *Estimator {
	if n < 1 {
		panic("core: estimator needs at least one interface")
	}
	if interval <= 0 {
		panic("core: estimator interval must be positive")
	}
	return &Estimator{
		interval:  interval,
		chunkSize: chunkSize,
		reqs:      make([]float64, n),
		rates:     make([]units.BitRate, n),
	}
}

// Interval returns the current measurement interval Ti.
func (e *Estimator) Interval() time.Duration { return e.interval }

// SetInterval updates Ti, e.g. to track the sampled average chunk RTT.
func (e *Estimator) SetInterval(ti time.Duration) {
	if ti > 0 {
		e.interval = ti
	}
}

// RecordRequest notes that a request for chunks (≥1 when requests carry
// anticipation windows) was forwarded upstream, whose data will come back
// through interface dataIface.
func (e *Estimator) RecordRequest(dataIface IfaceID, chunks int) {
	e.reqs[dataIface] += float64(chunks)
}

// Tick closes the current measurement interval at time now: anticipated
// rates are recomputed from the interval's request counts and the counts
// reset. Call it every Ti.
func (e *Estimator) Tick(now time.Duration) {
	elapsed := now - e.windowStart
	if elapsed <= 0 {
		elapsed = e.interval
	}
	sec := elapsed.Seconds()
	for i, reqs := range e.reqs {
		bits := reqs * e.chunkSize.Bits()
		e.rates[i] = units.BitRate(bits / sec)
		e.reqs[i] = 0
	}
	e.windowStart = now
}

// AnticipatedRate returns r_a for interface i as of the last Tick: the
// traffic the interface should expect to forward during the next interval.
func (e *Estimator) AnticipatedRate(i IfaceID) units.BitRate { return e.rates[i] }
