package sweep

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/chunknet"
	"repro/internal/topo"
	"repro/internal/units"
)

// validChunkSpec engages every failure knob, so Validate walks all of its
// rules.
func validChunkSpec() ChunkSpec {
	return ChunkSpec{
		Transport:   chunknet.INRPP,
		EgressRate:  units.Gbps,
		Chunks:      10,
		Outage:      topo.OutageSpec{Kind: topo.OutageExp, Up: time.Second, Down: 100 * time.Millisecond},
		Maintenance: []topo.Window{{Start: time.Second, End: 2 * time.Second}},
		Loss:        0.01,
		DetourRate:  units.Gbps,
		Failover:    chunknet.FailoverBoth,
		Correlated:  true,
	}
}

// TestChunkSpecValidate: each invalid field is reported as a FieldError
// naming it, a valid spec passes without allocating, and Simulate refuses
// an invalid spec before running anything.
func TestChunkSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(s *ChunkSpec)
	}{
		{"IngressRate", func(s *ChunkSpec) { s.IngressRate = -1 }},
		{"EgressRate", func(s *ChunkSpec) { s.EgressRate = -2 * units.Gbps }},
		{"ChunkSize", func(s *ChunkSpec) { s.ChunkSize = -units.MB }},
		{"Anticipation", func(s *ChunkSpec) { s.Anticipation = -1 }},
		{"Custody", func(s *ChunkSpec) { s.Custody = -units.GB }},
		{"Buffer", func(s *ChunkSpec) { s.Buffer = -5 * units.MB }},
		{"Transfers", func(s *ChunkSpec) { s.Transfers = -2 }},
		{"Chunks", func(s *ChunkSpec) { s.Chunks = -1 }},
		{"Horizon", func(s *ChunkSpec) { s.Horizon = -time.Second }},
		{"Outage.Up", func(s *ChunkSpec) { s.Outage.Up = -time.Second }},
		{"Outage.DownRate", func(s *ChunkSpec) { s.Outage.DownRate = -units.Mbps }},
		{"Outage", func(s *ChunkSpec) { s.Outage.Down = 0 }},
		{"DetourRate", func(s *ChunkSpec) { s.DetourRate = -units.Gbps }},
		{"Loss", func(s *ChunkSpec) { s.Loss = 1.5 }},
		{"Loss", func(s *ChunkSpec) { s.Loss = math.NaN() }},
		{"Maintenance", func(s *ChunkSpec) { s.Maintenance = []topo.Window{{Start: 2 * time.Second, End: time.Second}} }},
		{"Failover", func(s *ChunkSpec) { s.DetourRate, s.Correlated = 0, false }},
		{"Correlated", func(s *ChunkSpec) { s.DetourRate, s.Failover = 0, chunknet.FailoverHold }},
		{"Correlated", func(s *ChunkSpec) { s.Outage, s.Maintenance = topo.OutageSpec{}, nil }},
	} {
		s := validChunkSpec()
		tc.edit(&s)
		var fe *FieldError
		if err := s.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Validate() = %v, want a FieldError on %s", tc.field, err, tc.field)
		}
		if _, err := s.Simulate(1); err == nil {
			t.Errorf("%s: Simulate ran an invalid spec", tc.field)
		}
	}
	s := validChunkSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Validate() }); n != 0 {
		t.Errorf("Validate allocates %.0f times on a valid spec, want 0", n)
	}
}

// TestFlowSpecValidate is TestChunkSpecValidate for flow specs.
func TestFlowSpecValidate(t *testing.T) {
	valid := FlowSpec{ISP: topo.VSNL, Flows: 10, Lambda: 2, Capacity: units.Gbps, Horizon: time.Second}
	for _, tc := range []struct {
		field string
		edit  func(s *FlowSpec)
	}{
		{"Flows", func(s *FlowSpec) { s.Flows = 0 }},
		{"Capacity", func(s *FlowSpec) { s.Capacity = -units.Mbps }},
		{"Lambda", func(s *FlowSpec) { s.Lambda = -3 }},
		{"MeanSize", func(s *FlowSpec) { s.MeanSize = -10 * units.MB }},
		{"DemandCap", func(s *FlowSpec) { s.DemandCap = -5 * units.Mbps }},
		{"Horizon", func(s *FlowSpec) { s.Horizon = -time.Second }},
	} {
		s := valid
		tc.edit(&s)
		var fe *FieldError
		if err := s.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Validate() = %v, want a FieldError on %s", tc.field, err, tc.field)
		}
		if _, err := s.Simulate(1); err == nil {
			t.Errorf("%s: Simulate ran an invalid spec", tc.field)
		}
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = valid.Validate() }); n != 0 {
		t.Errorf("Validate allocates %.0f times on a valid spec, want 0", n)
	}
}
