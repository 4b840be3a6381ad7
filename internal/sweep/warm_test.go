//go:build !race

package sweep

import (
	"testing"
	"time"

	"repro/internal/chunknet"
	"repro/internal/topo"
	"repro/internal/units"
)

// TestWarmChunkSpecAllocs gates the buffers a finished chunknet.Sim and
// Simulate's start-jitter stream hand to the next scenario. A lossy,
// churned failover scenario of the failure-grid kind made 1,332
// allocations per run when every Sim grew its DES arrays, packets, store
// and queue arrays and math/rand sources from empty; with them reused it
// makes 263. Under -race a sync.Pool drops a quarter of what it is given
// at random, so the count means something only without it.
func TestWarmChunkSpecAllocs(t *testing.T) {
	const ceiling = 400
	spec := ChunkSpec{
		Transport:    chunknet.INRPP,
		IngressRate:  800 * units.Mbps,
		EgressRate:   units.Gbps,
		ChunkSize:    100 * units.KB,
		Anticipation: 64,
		Custody:      32 * units.MB,
		Transfers:    4,
		Chunks:       100,
		StartSpread:  50 * time.Millisecond,
		Horizon:      2 * time.Second,
		Ti:           10 * time.Millisecond,
		Outage:       topo.OutageSpec{Kind: topo.OutageExp, Up: 150 * time.Millisecond, Down: 30 * time.Millisecond},
		Loss:         0.02,
		DetourRate:   500 * units.Mbps,
		Failover:     chunknet.FailoverReroute,
	}
	rep, err := spec.Simulate(1) // warm-up, and proof the run is lossy and churned
	if err != nil {
		t.Fatal(err)
	}
	if rep.PktsLostRandom == 0 || rep.ArcDownTransitions == 0 {
		t.Fatalf("scenario neither loses nor churns: %+v", rep)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := spec.Simulate(7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("%.0f allocations per warm scenario, ceiling %d", allocs, ceiling)
	}
}
