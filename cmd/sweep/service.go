package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// serveArgs parameterises -mode serve: one coordinator process that
// leases the expanded grid to workers and renders the final output
// itself once every scenario has reported.
type serveArgs struct {
	listen         string
	checkpointPath string
	batch          int
	leaseTTL       time.Duration
	label          string
	scenarios      []sweep.Scenario
	format         string
	metricsList    string
	tableTitle     string
	linger         time.Duration
	quiet          bool
	reg            *obs.Registry
}

// runServe is -mode serve: start the coordinator (always resuming from
// -checkpoint), serve the lease protocol and live views, wait for the
// grid to complete, and render the final table exactly as a single-host
// run would.
func runServe(a serveArgs) {
	if a.checkpointPath == "" {
		fatal(fmt.Errorf("-mode serve requires -checkpoint (the coordinator's resume state)"))
	}
	var logw *os.File
	if !a.quiet {
		logw = os.Stderr
	}
	coord, err := sweepd.NewCoordinator(sweepd.Config{
		Label:          a.label,
		Scenarios:      a.scenarios,
		CheckpointPath: a.checkpointPath,
		Batch:          a.batch,
		LeaseTTL:       a.leaseTTL,
		Obs:            a.reg,
		Log:            logw,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", a.listen)
	if err != nil {
		fatal(err)
	}
	// The chaos e2e and sweepd-local.sh parse this line for the port.
	fmt.Fprintf(os.Stderr, "sweepd: coordinator listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln) //nolint:errcheck — dies with the process

	if err := coord.Wait(context.Background()); err != nil {
		fatal(err)
	}
	if err := coord.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: checkpoint: %v\n", err)
	}
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, a.scenarios)
	if err := coord.FoldInto(acc); err != nil {
		fatal(err)
	}
	failed := coord.Failed()
	for _, r := range failed {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", r.Err)
	}
	render(a.format, a.metricsList, a.tableTitle, acc)
	stopProfiles()
	if a.linger > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: serving final state for %s\n", a.linger)
		time.Sleep(a.linger)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d scenarios failed\n", len(failed), len(a.scenarios))
		os.Exit(1)
	}
}

// workArgs parameterises -mode work: a thin worker that leases batches
// from -coordinator and runs them on the ordinary Runner machinery.
type workArgs struct {
	coordinator string
	name        string
	label       string
	scenarios   []sweep.Scenario
	workers     int
	max         int
	poll        time.Duration
	patience    time.Duration
	quiet       bool
	reg         *obs.Registry
}

// runWork is -mode work: loop lease → run → submit until the
// coordinator reports the grid complete.
func runWork(a workArgs) {
	if a.coordinator == "" {
		fatal(fmt.Errorf("-mode work requires -coordinator URL"))
	}
	name := a.name
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var logw *os.File
	if !a.quiet {
		logw = os.Stderr
	}
	err := sweepd.RunWorker(context.Background(), sweepd.WorkerConfig{
		Coordinator: a.coordinator,
		Name:        name,
		Label:       a.label,
		Scenarios:   a.scenarios,
		Workers:     a.workers,
		Max:         a.max,
		Poll:        a.poll,
		Patience:    a.patience,
		Obs:         a.reg,
		Log:         logw,
	})
	stopProfiles()
	if err != nil {
		fatal(err)
	}
}
