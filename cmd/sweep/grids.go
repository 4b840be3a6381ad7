package main

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/chunknet"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

// param declares one grid flag. A scalar param holds one value every cell
// shares and is recorded in the checkpoint label as key=value; an axis
// param is a comma-separated list that becomes the grid axis named key.
// Flag registration, decoding, the grid, its seed rule, the baseline
// collapse and the label are all loops over a family's params, so adding
// an axis is adding a row.
type param[S any] struct {
	flag  string
	def   any // string, int64, float64 or time.Duration: the flag's type and default
	usage string
	key   string
	// field is the spec field decode writes: a sweep.FieldError from
	// Validate on it is reported against this flag.
	field string
	// decode writes one flag value into the spec.
	decode func(s *S, v string) error
	// seed puts the axis into the seed derivation; axes without it (the
	// comparison axes) replay the same workload and failure trace.
	seed bool
	// quiet reports that the decoded spec holds the param's quiet value.
	// An axis whose values are all quiet stays out of the grid and a quiet
	// scalar out of the label, so grids that leave it alone keep their
	// scenario names, seeds and checkpoint label.
	quiet func(s *S) bool
	// inrppOnly marks a knob only INRPP reads: baseline cells keep the
	// axis's first value alone instead of rerunning byte-identically.
	inrppOnly bool
	// show formats a scalar for the label (default: the flag text).
	show func(s *S) string
}

// spec is what a grid family expands into: sweep.FlowSpec or
// sweep.ChunkSpec.
type spec interface {
	Validate() error
	Run(seed int64) sweep.RunFunc
}

// family is one grid mode's declaration: its scalars in label order and
// its axes in grid order.
type family[S spec] struct {
	name    string
	scalars []param[S]
	axes    []param[S]
	// baseline reports a cell whose transport ignores inrppOnly knobs
	// (nil: the family has none).
	baseline func(s *S) bool
	// observe threads the shared registry, trace and the cell's trace
	// label into a spec.
	observe func(s *S, reg *obs.Registry, tr *obs.Trace, label string)
}

// register declares the family's flags on fs; a flag both families
// declare (-horizon) is registered once.
func (f family[S]) register(fs *flag.FlagSet) {
	for _, p := range slices.Concat(f.scalars, f.axes) {
		if fs.Lookup(p.flag) != nil {
			continue
		}
		switch d := p.def.(type) {
		case string:
			fs.String(p.flag, d, p.usage)
		case int64:
			fs.Int64(p.flag, d, p.usage)
		case float64:
			fs.Float64(p.flag, d, p.usage)
		case time.Duration:
			fs.Duration(p.flag, d, p.usage)
		default:
			panic(fmt.Sprintf("sweep: flag -%s has unsupported default %T", p.flag, d))
		}
	}
}

// expand decodes the family's flags from fs and expands its grid. Every
// expanded cell is validated before any scenario runs, and a rejected
// value comes back as an error naming its flag.
func (f family[S]) expand(fs *flag.FlagSet, seed int64, replicas int, reg *obs.Registry, tr *obs.Trace) ([]sweep.Scenario, string, error) {
	var base S
	label := f.name
	for _, p := range f.scalars {
		v := fs.Lookup(p.flag).Value.String()
		if err := p.decode(&base, v); err != nil {
			return nil, "", fmt.Errorf("bad -%s %q: %w", p.flag, v, err)
		}
		if p.quiet != nil && p.quiet(&base) {
			continue
		}
		if p.show != nil {
			v = p.show(&base)
		}
		label += " " + p.key + "=" + v
	}

	grid := sweep.NewGrid()
	var (
		seedKeys []string
		active   []param[S] // the axes in the grid
		first    []string   // each active axis's first value
	)
	for _, p := range f.axes {
		values := split(fs.Lookup(p.flag).Value.String())
		if len(values) == 0 {
			return nil, "", fmt.Errorf("-%s: empty list", p.flag)
		}
		on := p.quiet == nil
		for _, v := range values {
			s := base
			if err := p.decode(&s, v); err != nil {
				return nil, "", fmt.Errorf("bad -%s entry %q: %w", p.flag, v, err)
			}
			on = on || !p.quiet(&s)
		}
		if !on {
			continue
		}
		grid.Axis(p.key, values...)
		if p.seed {
			seedKeys = append(seedKeys, p.key)
		}
		active, first = append(active, p), append(first, values[0])
	}
	grid.SeedAxes(seedKeys...)

	var (
		keep []bool
		bad  error
	)
	scenarios := grid.Expand(seed, replicas, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		s, other := base, false
		for i, p := range active {
			v := pt.Get(p.key)
			p.decode(&s, v) //nolint:errcheck — every value decoded above
			other = other || (p.inrppOnly && v != first[i])
		}
		keep = append(keep, !other || f.baseline == nil || !f.baseline(&s))
		if err := s.Validate(); err != nil && bad == nil {
			bad = f.blame(pt, err)
		}
		f.observe(&s, reg, tr, sweep.ScenarioName(pt, replica))
		return s.Run(seed)
	})
	if bad != nil {
		return nil, "", bad
	}
	kept := scenarios[:0]
	for i, sc := range scenarios {
		if keep[i] {
			kept = append(kept, sc)
		}
	}
	return kept, label, nil
}

// blame names the flag behind a Validate error at point pt.
func (f family[S]) blame(pt sweep.Point, err error) error {
	var fe *sweep.FieldError
	if errors.As(err, &fe) {
		for _, p := range slices.Concat(f.scalars, f.axes) {
			if p.field == fe.Field {
				return fmt.Errorf("bad -%s at %s: %w", p.flag, pt.Key(), err)
			}
		}
	}
	return fmt.Errorf("bad grid point %s: %w", pt.Key(), err)
}

// registerGrids declares every grid family's flags on fs.
func registerGrids(fs *flag.FlagSet) {
	flowGrid.register(fs)
	chunkGrid.register(fs)
}

// expandGrid decodes the named family's flags from the parsed fs and
// returns its scenarios and checkpoint label.
func expandGrid(fs *flag.FlagSet, name string, seed int64, replicas int, reg *obs.Registry, tr *obs.Trace) ([]sweep.Scenario, string, error) {
	switch name {
	case flowGrid.name:
		return flowGrid.expand(fs, seed, replicas, reg, tr)
	case chunkGrid.name:
		return chunkGrid.expand(fs, seed, replicas, reg, tr)
	}
	return nil, "", fmt.Errorf("unknown grid %q (known: flow, chunk)", name)
}

// horizon is the -horizon scalar both families share: 0 resolves to the
// family default, and the label records the resolved value.
func horizon[S any](def time.Duration, at func(s *S) *time.Duration) param[S] {
	return param[S]{
		flag: "horizon", def: time.Duration(0), key: "horizon", field: "Horizon",
		usage: "virtual time horizon per scenario (0 = mode default: 8s flow, 5s chunk)",
		decode: func(s *S, v string) (err error) {
			if *at(s), err = time.ParseDuration(v); *at(s) == 0 {
				*at(s) = def
			}
			return err
		},
		show: func(s *S) string { return at(s).String() },
	}
}

// flowGrid is the flow-level topology × load × policy grid, the Figure 4
// machinery. Policy is the comparison axis: every policy runs the same
// flows at each (isp, flows, replica).
var flowGrid = family[sweep.FlowSpec]{
	name: "flow",
	scalars: []param[sweep.FlowSpec]{
		{flag: "capacity", def: "450Mbps", usage: "flow: uniform link capacity override (0 = keep built-in)", key: "capacity", field: "Capacity",
			decode: func(s *sweep.FlowSpec, v string) (err error) { s.Capacity, err = units.ParseBitRate(v); return }},
		{flag: "demand", def: "300Mbps", usage: "flow: per-flow rate demand (0 = elastic)", key: "demand", field: "DemandCap",
			decode: func(s *sweep.FlowSpec, v string) (err error) { s.DemandCap, err = units.ParseBitRate(v); return }},
		{flag: "size", def: "150MB", usage: "flow: mean flow size (bounded Pareto)", key: "size", field: "MeanSize",
			decode: func(s *sweep.FlowSpec, v string) (err error) { s.MeanSize, err = units.ParseByteSize(v); return }},
		{flag: "lambda", def: 0.0, usage: "flow: arrival rate (flows/s; 0 = flows/4)", key: "lambda", field: "Lambda",
			decode: func(s *sweep.FlowSpec, v string) (err error) { s.Lambda, err = strconv.ParseFloat(v, 64); return }},
		horizon(8*time.Second, func(s *sweep.FlowSpec) *time.Duration { return &s.Horizon }),
	},
	axes: []param[sweep.FlowSpec]{
		{flag: "isps", def: string(topo.Tiscali), usage: "flow: comma-separated ISP topologies", key: "isp", seed: true,
			decode: func(s *sweep.FlowSpec, v string) error {
				if s.ISP = topo.ISP(v); !slices.Contains(topo.ISPs(), s.ISP) {
					return fmt.Errorf("unknown ISP (known: %v)", topo.ISPs())
				}
				return nil
			}},
		{flag: "flows", def: "60,120,180,240,300", usage: "flow: comma-separated flow counts (offered-load axis)", key: "flows", field: "Flows", seed: true,
			decode: func(s *sweep.FlowSpec, v string) (err error) { s.Flows, err = strconv.Atoi(v); return }},
		{flag: "policies", def: "sp,inrp", usage: "flow: comma-separated policies: sp|ecmp|inrp", key: "policy", field: "Policy",
			decode: func(s *sweep.FlowSpec, v string) (err error) { s.Policy, err = sweep.ParsePolicy(v); return }},
	},
	observe: func(s *sweep.FlowSpec, reg *obs.Registry, tr *obs.Trace, label string) {
		s.Obs, s.Trace, s.TraceLabel = reg, tr, label
	},
}

// optionalRate decodes a rate flag whose empty value means "off".
func optionalRate(v string) (units.BitRate, error) {
	if v == "" {
		return 0, nil
	}
	return units.ParseBitRate(v)
}

// noOutage quiets the churn params while -outage-kind is none.
func noOutage(s *sweep.ChunkSpec) bool { return s.Outage.Kind == topo.OutageNone }

// chunkGrid is the chunk-level grid on the custody bottleneck chain, the
// §3.3 machinery, with the failure model on its egress link. Transport,
// anticipation, custody and failover are the comparison axes: every cell
// at one (transfers, outage, loss, correlation, replica) sees the same
// start jitter and failure trace.
var chunkGrid = family[sweep.ChunkSpec]{
	name: "chunk",
	scalars: []param[sweep.ChunkSpec]{
		{flag: "ingress", def: "40Gbps", usage: "chunk: chain ingress link rate", key: "ingress", field: "IngressRate",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.IngressRate, err = units.ParseBitRate(v); return }},
		{flag: "egress", def: "2Gbps", usage: "chunk: chain egress (bottleneck) link rate", key: "egress", field: "EgressRate",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.EgressRate, err = units.ParseBitRate(v); return }},
		{flag: "chunksize", def: "10MB", usage: "chunk: chunk size", key: "chunksize", field: "ChunkSize",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.ChunkSize, err = units.ParseByteSize(v); return }},
		{flag: "chunks", def: int64(2000), usage: "chunk: chunks per transfer", key: "chunks", field: "Chunks",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Chunks, err = strconv.ParseInt(v, 10, 64); return }},
		{flag: "buffer", def: "25MB", usage: "chunk: AIMD/ARC drop-tail buffer", key: "buffer", field: "Buffer",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Buffer, err = units.ParseByteSize(v); return }},
		horizon(5*time.Second, func(s *sweep.ChunkSpec) *time.Duration { return &s.Horizon }),
		{flag: "outage-kind", def: "none", usage: "chunk: egress-link churn family: none|fixed|exp (none keeps the link always up)", key: "outage", field: "Outage",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Outage.Kind, err = topo.ParseOutageKind(v); return },
			quiet:  noOutage,
			show:   func(s *sweep.ChunkSpec) string { return s.Outage.Kind.String() }},
		{flag: "outage-downrate", def: "", usage: "chunk: link capacity while down (empty = hard outage: arc pauses, in-flight packets drop)", key: "downrate", field: "Outage.DownRate",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Outage.DownRate, err = optionalRate(v); return },
			quiet:  noOutage},
		{flag: "maintenance", def: "", usage: "chunk: scheduled egress hard-down windows, semicolon-separated \"start-end\" pairs (e.g. \"1s-2s;4s-5s\"); composes with -outage-kind churn", key: "maintenance", field: "Maintenance",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Maintenance, err = topo.ParseWindows(v); return },
			quiet:  func(s *sweep.ChunkSpec) bool { return len(s.Maintenance) == 0 }},
		{flag: "detour-rate", def: "", usage: "chunk: add a detour node beside the bottleneck with both links at this rate (empty = no detour; required by -failover reroute/both and -correlated)", key: "detour", field: "DetourRate",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.DetourRate, err = optionalRate(v); return },
			quiet:  func(s *sweep.ChunkSpec) bool { return s.DetourRate == 0 }},
	},
	axes: []param[sweep.ChunkSpec]{
		{flag: "transports", def: "inrpp,aimd,arc", usage: "chunk: comma-separated transports: inrpp|aimd|arc", key: "transport", field: "Transport",
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Transport, err = sweep.ParseTransport(v); return }},
		{flag: "anticipations", def: "4096", usage: "chunk: comma-separated INRPP anticipation windows (chunks)", key: "ac", field: "Anticipation", inrppOnly: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) {
				s.Anticipation, err = strconv.ParseInt(v, 10, 64)
				return
			}},
		{flag: "custody", def: "10GB", usage: "chunk: comma-separated INRPP custody budgets", key: "custody", field: "Custody", inrppOnly: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Custody, err = units.ParseByteSize(v); return }},
		{flag: "transfers", def: "1", usage: "chunk: comma-separated concurrent transfer counts (load axis)", key: "transfers", field: "Transfers", seed: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Transfers, err = strconv.Atoi(v); return }},
		{flag: "outage-up", def: "2s", usage: "chunk: comma-separated mean up-phase durations (outage-rate axis; active with -outage-kind)", key: "outage_up", field: "Outage.Up", seed: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Outage.Up, err = time.ParseDuration(v); return },
			quiet:  noOutage},
		{flag: "outage-down", def: "500ms", usage: "chunk: comma-separated mean down-phase durations (axis)", key: "outage_down", field: "Outage.Down", seed: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Outage.Down, err = time.ParseDuration(v); return },
			quiet:  noOutage},
		{flag: "loss", def: "0", usage: "chunk: comma-separated egress per-packet loss probabilities (lossy-arc axis; 0 keeps the link lossless)", key: "loss", field: "Loss", seed: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Loss, err = strconv.ParseFloat(v, 64); return },
			quiet:  func(s *sweep.ChunkSpec) bool { return s.Loss == 0 }},
		{flag: "correlated", def: "false", usage: "chunk: comma-separated true|false — group the egress and detour-return links into one SRLG so they fail together (axis; needs -detour-rate)", key: "correlated", field: "Correlated", seed: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) { s.Correlated, err = strconv.ParseBool(v); return },
			quiet:  func(s *sweep.ChunkSpec) bool { return !s.Correlated }},
		{flag: "failover", def: "hold", usage: "chunk: comma-separated INRPP failover strategies: hold|reroute|both (axis; baselines keep the first value)", key: "failover", field: "Failover", inrppOnly: true,
			decode: func(s *sweep.ChunkSpec, v string) (err error) {
				s.Failover, err = chunknet.ParseFailoverMode(v)
				return
			},
			quiet: func(s *sweep.ChunkSpec) bool { return s.Failover == chunknet.FailoverHold }},
	},
	baseline: func(s *sweep.ChunkSpec) bool { return s.Transport != chunknet.INRPP },
	observe: func(s *sweep.ChunkSpec, reg *obs.Registry, tr *obs.Trace, label string) {
		s.Obs, s.Trace, s.TraceLabel = reg, tr, label
	},
}
