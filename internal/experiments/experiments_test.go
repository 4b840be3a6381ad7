package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/flowsim"
	"repro/internal/topo"
	"repro/internal/units"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if got := MaxAbsError(rows); got > 0.02 {
		t.Errorf("max per-class calibration error = %.4f, want ≤ 0.02", got)
	}
	avg := Table1Average(rows)
	// Paper average row: 52.80 / 30.86 / 3.24 / 13.10.
	paperAvg := topo.PaperAverageDetourProfile()
	if math.Abs(avg.Measured.OneHop-paperAvg.OneHop) > 0.02 {
		t.Errorf("average 1-hop = %.4f, paper %.4f", avg.Measured.OneHop, paperAvg.OneHop)
	}
	if math.Abs(avg.Measured.None-paperAvg.None) > 0.02 {
		t.Errorf("average N/A = %.4f, paper %.4f", avg.Measured.None, paperAvg.None)
	}
	out := Table1Report(rows).String()
	if !strings.Contains(out, "Level 3") || !strings.Contains(out, "Average") {
		t.Error("Table1 report missing rows")
	}
}

// fastFig4 is a small configuration for CI-speed testing.
func fastFig4() Fig4Config {
	return Fig4Config{
		ISPs:            []topo.ISP{topo.Exodus},
		TargetActive:    120,
		DemandCap:       300 * units.Mbps,
		UniformCapacity: 450 * units.Mbps,
		Horizon:         8 * time.Second,
		Seeds:           1,
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(fastFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	r := res[0]
	sp := r.Throughput[flowsim.SP]
	ecmp := r.Throughput[flowsim.ECMP]
	inrp := r.Throughput[flowsim.INRP]
	if !(sp > 0 && sp < 1) {
		t.Errorf("SP throughput = %v, want in (0,1): load should bind", sp)
	}
	// The paper's ordering: SP ≤ ECMP < INRP.
	if ecmp < sp-0.01 {
		t.Errorf("ECMP (%v) should not trail SP (%v)", ecmp, sp)
	}
	if inrp <= ecmp {
		t.Errorf("INRP (%v) should beat ECMP (%v)", inrp, ecmp)
	}
	if r.GainOverSP <= 0.02 {
		t.Errorf("INRP gain over SP = %+.1f%%, want clearly positive", 100*r.GainOverSP)
	}
	report := Fig4aReport(res).String()
	if !strings.Contains(report, "Exodus") {
		t.Error("Fig4a report missing topology")
	}
}

func TestFig4StretchCDF(t *testing.T) {
	res, err := Fig4(fastFig4())
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if len(r.Stretch) == 0 {
		t.Fatal("no stretch samples")
	}
	curve := Fig4bCurve(r, 50)
	if len(curve) == 0 {
		t.Fatal("empty CDF curve")
	}
	// Paper's Fig 4b shape: most traffic at stretch 1.0, bounded tail.
	for _, s := range r.Stretch {
		if s < 1-1e-9 {
			t.Fatalf("stretch %v below 1", s)
		}
		if s > 3.01 { // 1-hop + extra-hop detours add at most 2 hops per link
			t.Fatalf("stretch %v unreasonably large", s)
		}
	}
	last := curve[len(curve)-1]
	if last.F != 1 {
		t.Errorf("CDF should end at 1, got %v", last.F)
	}
	if Fig4bReport(res).String() == "" {
		t.Error("empty Fig4b report")
	}
}

func TestFig3Experiment(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Paper §3.1: e2e (2,8) Mbps, Jain 0.73; INRPP (5,5), Jain 1.0.
	if math.Abs(r.E2ERatesMbps[0]-2) > 0.01 || math.Abs(r.E2ERatesMbps[1]-8) > 0.01 {
		t.Errorf("e2e rates = %v, want (2,8)", r.E2ERatesMbps)
	}
	if math.Abs(r.E2EJain-0.735) > 0.001 {
		t.Errorf("e2e Jain = %v, want 0.735", r.E2EJain)
	}
	if math.Abs(r.INRPRatesMbps[0]-5) > 0.01 || math.Abs(r.INRPRatesMbps[1]-5) > 0.01 {
		t.Errorf("INRP rates = %v, want (5,5)", r.INRPRatesMbps)
	}
	if math.Abs(r.INRPJain-1) > 1e-6 {
		t.Errorf("INRP Jain = %v, want 1", r.INRPJain)
	}
	if math.Abs(r.DetouredShare-0.3) > 0.02 {
		t.Errorf("detoured share = %v, want ≈0.3", r.DetouredShare)
	}
	if Fig3Report(r).String() == "" {
		t.Error("empty Fig3 report")
	}
}

func TestCustodyExperiment(t *testing.T) {
	// Scaled-down custody run for test speed: 4Gbps→200Mbps chain.
	cfg := CustodyConfig{
		IngressRate: 4 * units.Gbps,
		EgressRate:  200 * units.Mbps,
		Custody:     units.GB,
		Buffer:      2 * units.MB,
		ChunkSize:   units.MB,
		Chunks:      600,
		Horizon:     4 * time.Second,
	}
	r, err := Custody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic absorption horizon: 1GB at 4Gbps = 2s.
	if math.Abs(r.HoldSeconds-2) > 1e-9 {
		t.Errorf("hold seconds = %v, want 2", r.HoldSeconds)
	}
	if r.INRPP.Dropped != 0 {
		t.Errorf("INRPP dropped %d chunks; custody should absorb", r.INRPP.Dropped)
	}
	if r.INRPP.CustodyPeak == 0 {
		t.Error("custody never engaged")
	}
	if r.AIMD.Dropped == 0 {
		t.Error("AIMD with a small buffer should drop")
	}
	if r.INRPP.Delivered <= r.AIMD.Delivered {
		t.Errorf("INRPP delivered %d ≤ AIMD %d; pooling should win at the bottleneck",
			r.INRPP.Delivered, r.AIMD.Delivered)
	}
	if CustodyReport(r).String() == "" {
		t.Error("empty custody report")
	}
}

func TestCustodyPaperDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale custody run")
	}
	r, err := Custody(CustodyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.HoldSeconds-CustodyPaper.HoldSecs) > 1e-9 {
		t.Errorf("hold = %v, want %v", r.HoldSeconds, CustodyPaper.HoldSecs)
	}
	if r.INRPP.Dropped != 0 {
		t.Errorf("INRPP dropped %d at paper scale", r.INRPP.Dropped)
	}
}

// tinyDisruption is a scaled-down disruption config for test speed: the
// golden churn chain at two outage rates, two seeds each.
func tinyDisruption() DisruptionConfig {
	return DisruptionConfig{
		IngressRate: units.Gbps,
		EgressRate:  200 * units.Mbps,
		Custody:     50 * units.MB,
		Buffer:      2 * units.MB,
		ChunkSize:   100 * units.KB,
		Chunks:      200,
		Horizon:     2 * time.Second,
		OutageUps:   []time.Duration{400 * time.Millisecond, 150 * time.Millisecond},
		OutageDown:  100 * time.Millisecond,
		Seeds:       2,
	}
}

func TestDisruptionExperiment(t *testing.T) {
	r, err := Disruption(tinyDisruption())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows, want 2 outage rates × 3 transports", len(r.Rows))
	}
	// Transports at one outage rate replay the identical churn trace:
	// their downtime accounting must agree exactly, not statistically.
	downBy := map[time.Duration]float64{}
	for _, row := range r.Rows {
		if row.ArcDownS <= 0 {
			t.Errorf("%s up=%s: no downtime accounted", row.Transport, row.OutageUp)
		}
		if prev, ok := downBy[row.OutageUp]; ok && prev != row.ArcDownS {
			t.Errorf("up=%s: transports saw different outage traces (%v vs %v)",
				row.OutageUp, prev, row.ArcDownS)
		}
		downBy[row.OutageUp] = row.ArcDownS
		if row.Transport == "inrpp" && row.Requeued == 0 {
			t.Errorf("inrpp up=%s: custody never requeued through an outage", row.OutageUp)
		}
	}
	// The experiment is a pure function of its config.
	again, err := Disruption(tinyDisruption())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DisruptionReport(again).String(), DisruptionReport(r).String(); got != want {
		t.Errorf("rerun differs:\n%s\n--- vs ---\n%s", got, want)
	}
	if !strings.Contains(DisruptionReport(r).String(), "inrpp") {
		t.Error("report missing transport rows")
	}
}
