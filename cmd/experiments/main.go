// Command experiments regenerates every table and figure of the paper,
// printing paper-vs-measured values.
//
// Usage:
//
//	experiments [-run all|table1|fig4a|fig4b|fig3|custody|disruption|failover]
//	            [-seeds N] [-horizon 15s] [-format table|csv] [-quick]
//
// disruption — the link-churn experiment (completion time vs outage rate
// per transport) — runs only when named: its default scale sweeps 12 grid
// cells × seeds at a 60s horizon. -quick shrinks it to seconds.
//
// failover — the recovery-strategy frontier (failure profile ×
// correlation × custody × strategy on the custody diamond) — also runs
// only when named. -quick drops the both strategy and the custody axis,
// keeping the two frontier halves.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/chunknet"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all|table1|fig4a|fig4b|fig3|custody|disruption|failover (disruption and failover only when named)")
	seeds := flag.Int("seeds", 3, "workload seeds for fig4")
	horizon := flag.Duration("horizon", 15*time.Second, "virtual horizon per fig4 run")
	format := flag.String("format", "table", "output format: table|csv")
	quick := flag.Bool("quick", false, "reduced fig4/custody scale for a fast pass")
	flag.Parse()
	if err := checkFlags(*run, *format, *seeds, *horizon, *quick); err != nil {
		fatal(err)
	}

	emit := func(t *report.Table) {
		var err error
		if *format == "csv" {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fatal(err)
		}
	}

	wantFig4 := *run == "all" || *run == "fig4a" || *run == "fig4b"

	if *run == "all" || *run == "table1" {
		rows, err := experiments.Table1()
		if err != nil {
			fatal(err)
		}
		emit(experiments.Table1Report(rows))
		fmt.Printf("max per-class calibration error: %.2f%%\n\n", 100*experiments.MaxAbsError(rows))
	}

	if wantFig4 {
		cfg := experiments.DefaultFig4Config()
		cfg.Seeds = *seeds
		cfg.Horizon = *horizon
		if *quick {
			cfg.ISPs = []topo.ISP{topo.Exodus}
			cfg.TargetActive = 120
			cfg.Horizon = 8 * time.Second
			cfg.Seeds = 1
		}
		fmt.Println("running fig4 (this sweeps 3 policies × seeds × topologies)...")
		res, err := experiments.Fig4(cfg)
		if err != nil {
			fatal(err)
		}
		if *run == "all" || *run == "fig4a" {
			emit(experiments.Fig4aReport(res))
		}
		if *run == "all" || *run == "fig4b" {
			emit(experiments.Fig4bReport(res))
			for _, r := range res {
				fmt.Printf("# CDF points — %s\n", r.ISP)
				for _, p := range experiments.Fig4bCurve(r, 12) {
					fmt.Printf("  stretch=%.3f F=%.3f\n", p.X, p.F)
				}
			}
			fmt.Println()
		}
	}

	if *run == "all" || *run == "fig3" {
		r, err := experiments.Fig3()
		if err != nil {
			fatal(err)
		}
		emit(experiments.Fig3Report(r))
	}

	if *run == "all" || *run == "custody" {
		cfg := experiments.CustodyConfig{}
		if *quick {
			cfg = experiments.CustodyConfig{
				IngressRate: 4 * units.Gbps,
				EgressRate:  200 * units.Mbps,
				Custody:     units.GB,
				Buffer:      2 * units.MB,
				ChunkSize:   units.MB,
				Chunks:      600,
				Horizon:     4 * time.Second,
			}
		}
		r, err := experiments.Custody(cfg)
		if err != nil {
			fatal(err)
		}
		emit(experiments.CustodyReport(r))
	}

	if *run == "disruption" {
		cfg := experiments.DisruptionConfig{Seeds: *seeds}
		if *quick {
			cfg = experiments.DisruptionConfig{
				IngressRate: units.Gbps,
				EgressRate:  200 * units.Mbps,
				Custody:     50 * units.MB,
				Buffer:      2 * units.MB,
				ChunkSize:   100 * units.KB,
				Chunks:      200,
				Horizon:     2 * time.Second,
				OutageUps: []time.Duration{
					800 * time.Millisecond, 400 * time.Millisecond, 150 * time.Millisecond,
				},
				OutageDown: 100 * time.Millisecond,
				Seeds:      2,
			}
		}
		fmt.Println("running disruption (outage rate × transport × seeds on the churned custody chain)...")
		r, err := experiments.Disruption(cfg)
		if err != nil {
			fatal(err)
		}
		emit(experiments.DisruptionReport(r))
	}

	if *run == "failover" {
		cfg := experiments.FailoverConfig{Seeds: *seeds}
		if *quick {
			cfg.Seeds = 1
			cfg.Custodies = []units.ByteSize{32 * units.MB}
			cfg.Strategies = []chunknet.FailoverMode{chunknet.FailoverHold, chunknet.FailoverReroute}
		}
		fmt.Println("running failover (failure profile × correlation × custody × strategy on the custody diamond)...")
		r, err := experiments.Failover(cfg)
		if err != nil {
			fatal(err)
		}
		emit(experiments.FailoverReport(r))
	}
}

// experimentNames lists the values -run accepts.
var experimentNames = []string{"all", "table1", "fig4a", "fig4b", "fig3", "custody", "disruption", "failover"}

// checkFlags rejects flag values no experiment can honour, before any
// experiment runs: an unknown -run would print nothing, an unknown
// -format would fall back to a text table, -seeds below 1 would run one
// seed, and a negative -horizon would fail only inside Fig 4, after Table
// 1 printed. -quick sets its own seeds and horizon, so an explicit -seeds
// or -horizon beside it would be silently overwritten.
func checkFlags(run, format string, seeds int, horizon time.Duration, quick bool) error {
	if !slices.Contains(experimentNames, run) {
		return fmt.Errorf("-run %q: unknown experiment (known: %s)", run, strings.Join(experimentNames, ", "))
	}
	if format != "table" && format != "csv" {
		return fmt.Errorf("-format %q: unknown format (known: table, csv)", format)
	}
	if seeds < 1 {
		return fmt.Errorf("-seeds %d: need at least one seed", seeds)
	}
	if horizon < 0 {
		return fmt.Errorf("-horizon %v: need 0 (the default) or a positive horizon", horizon)
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if quick && err == nil && (f.Name == "seeds" || f.Name == "horizon") {
			err = fmt.Errorf("-quick sets its own seeds and horizon; drop -quick or -%s", f.Name)
		}
	})
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
