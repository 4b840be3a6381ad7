package cache

import (
	"testing"
	"time"

	"repro/internal/units"
)

func BenchmarkCustodyOfferPop(b *testing.B) {
	c := NewCustody(units.GB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Microsecond
		c.Offer(uint64(i), 10*units.KB, now)
		if i%2 == 1 {
			c.Pop(now)
		}
	}
}
