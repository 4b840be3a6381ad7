package core

import (
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/units"
)

// PlannerMode selects how the detour phase assigns overflow to candidate
// sub-paths (§3.3 discusses both variants).
type PlannerMode int

const (
	// CapacityAware assigns overflow respecting the residual capacity of
	// detour links, which the paper enables by having routers keep state
	// for the outgoing interfaces of their one-hop neighbours.
	CapacityAware PlannerMode = iota
	// Blind spreads overflow equally across candidates with no knowledge
	// of their load — the zero-state variant, kept for ablation.
	Blind
)

// ResidualFunc reports the spare per-direction capacity of an arc at
// planning time.
type ResidualFunc func(topo.Arc) units.BitRate

// Grant is one detour assignment: a rate sent over a sub-path around the
// congested link.
type Grant struct {
	Sub  route.Subpath
	Arcs []topo.Arc // the sub-path's directed arcs, tail→head of the congested arc
	Rate units.BitRate
}

// Planner finds and sizes detours around congested links, caching the
// candidate enumeration — in both orientations, with the sub-paths
// pre-resolved to directed arcs — per arc. It is the engine of the
// detour phase, shared by both simulators. Plan reuses internal scratch,
// so a planner must not be shared across goroutines (each simulation run
// owns its own, as before).
type Planner struct {
	g             *topo.Graph
	mode          PlannerMode
	extraHop      bool
	maxCandidates int

	// cands is the candidate cache, indexed 2*link+dir like the arcs of
	// both simulators; a nil entry is not built yet.
	cands []*candSet

	// Plan scratch, reused across calls: the returned grants and the
	// donor-arc consumption ledger. Candidate sets are ≤ MaxCandidates
	// with ≤ 2 arcs each, so the ledger is a linear-scanned pair list.
	grants       []Grant
	consumedArcs []topo.Arc
	consumedVals []units.BitRate
}

// candSet is a cached candidate enumeration: the oriented sub-paths and
// their directed-arc resolutions, index-aligned. Both slices are stable
// for the planner's lifetime, so callers may retain references.
type candSet struct {
	subs []route.Subpath
	arcs [][]topo.Arc
}

// PlannerConfig tunes detour planning.
type PlannerConfig struct {
	Mode PlannerMode
	// ExtraHop allows two-hop detour sub-paths in addition to one-hop
	// ones — the paper's "nodes on the detour path can further detour,
	// but for one extra hop only". Default true (the Fig. 4 setting).
	ExtraHop bool
	// MaxCandidates caps the candidate sub-paths considered per link
	// (≤ 0: unlimited).
	MaxCandidates int
}

// DefaultPlannerConfig returns the Fig. 4 evaluation setting: capacity-
// aware, one-hop detours plus one extra hop.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{Mode: CapacityAware, ExtraHop: true, MaxCandidates: 8}
}

// NewPlanner returns a planner over g.
func NewPlanner(g *topo.Graph, cfg PlannerConfig) *Planner {
	return &Planner{
		g:             g,
		mode:          cfg.Mode,
		extraHop:      cfg.ExtraHop,
		maxCandidates: cfg.MaxCandidates,
		cands:         make([]*candSet, 2*g.NumLinks()),
	}
}

// Candidates returns the detour sub-paths around link id, oriented from
// the congested arc's tail to its head. The slice is cached; callers
// must not mutate it.
func (p *Planner) Candidates(id topo.LinkID, dir topo.Direction) []route.Subpath {
	return p.candidates(id, dir).subs
}

// candidates returns the cached oriented candidate set for one direction
// of a link, building (and arc-resolving) it on first use.
func (p *Planner) candidates(id topo.LinkID, dir topo.Direction) *candSet {
	if set := p.cands[2*int(id)+int(dir)]; set != nil {
		return set
	}
	fwd := p.cands[2*int(id)+int(topo.Forward)]
	if fwd == nil {
		fwd = p.resolve(route.Subpaths(p.g, id, p.extraHop, p.maxCandidates))
		p.cands[2*int(id)+int(topo.Forward)] = fwd
	}
	if dir == topo.Forward {
		return fwd
	}
	// Reverse orientation for the B→A direction.
	rev := make([]route.Subpath, len(fwd.subs))
	for i, s := range fwd.subs {
		rp := make(route.Path, len(s.Path))
		for j, n := range s.Path {
			rp[len(s.Path)-1-j] = n
		}
		rev[i] = route.Subpath{Path: rp, Extra: s.Extra}
	}
	set := p.resolve(rev)
	p.cands[2*int(id)+int(topo.Reverse)] = set
	return set
}

// resolve pairs a candidate list with its directed-arc resolutions.
func (p *Planner) resolve(subs []route.Subpath) *candSet {
	arcs := make([][]topo.Arc, len(subs))
	for i, s := range subs {
		arcs[i] = p.subpathArcs(s)
	}
	return &candSet{subs: subs, arcs: arcs}
}

// HasDetour reports whether at least one detour sub-path with positive
// residual capacity exists around the arc. With a nil residual it only
// checks topological existence.
func (p *Planner) HasDetour(arc topo.Arc, residual ResidualFunc) bool {
	set := p.candidates(arc.Link, arc.Dir)
	for i := range set.subs {
		if residual == nil {
			return true
		}
		if arcsResidual(set.arcs[i], residual) > 0 {
			return true
		}
	}
	return false
}

// Plan assigns up to overflow of traffic to detour sub-paths around the
// given congested arc. It returns the grants and the unplaced remainder
// (which the caller must cache and back-pressure).
//
// CapacityAware mode fills candidates shortest-first against their
// residual capacity, never over-committing a donor arc (grants earlier in
// the list reduce the residual seen by later candidates sharing an arc).
// Blind mode splits the overflow equally across all candidates, capped by
// residual only at the caller's peril — it models detouring with no
// neighbour state and is kept for ablation.
// The returned grants slice is planner-owned scratch, valid until the
// next Plan call; the Arcs slices inside it are cached and stable for
// the planner's lifetime.
func (p *Planner) Plan(arc topo.Arc, overflow units.BitRate, residual ResidualFunc) (grants []Grant, unplaced units.BitRate) {
	if overflow <= 0 {
		return nil, 0
	}
	set := p.candidates(arc.Link, arc.Dir)
	if len(set.subs) == 0 {
		return nil, overflow
	}
	grants = p.grants[:0]

	switch p.mode {
	case Blind:
		share := overflow / units.BitRate(len(set.subs))
		for i, sub := range set.subs {
			grants = append(grants, Grant{Sub: sub, Arcs: set.arcs[i], Rate: share})
		}
		p.grants = grants
		return grants, 0

	default: // CapacityAware
		// Track how much of each donor arc this plan has consumed so far,
		// so overlapping candidates share residuals consistently.
		p.consumedArcs = p.consumedArcs[:0]
		p.consumedVals = p.consumedVals[:0]
		remaining := overflow
		for i, sub := range set.subs {
			if remaining <= 0 {
				break
			}
			arcs := set.arcs[i]
			avail := remaining
			for _, a := range arcs {
				r := residual(a) - p.consumed(a)
				if r < avail {
					avail = r
				}
			}
			if avail <= 0 {
				continue
			}
			for _, a := range arcs {
				p.consume(a, avail)
			}
			grants = append(grants, Grant{Sub: sub, Arcs: arcs, Rate: avail})
			remaining -= avail
		}
		p.grants = grants
		return grants, remaining
	}
}

// consumed returns how much of a donor arc this plan has already taken.
func (p *Planner) consumed(a topo.Arc) units.BitRate {
	for i, b := range p.consumedArcs {
		if b == a {
			return p.consumedVals[i]
		}
	}
	return 0
}

// consume records a donor-arc allocation in the plan's ledger.
func (p *Planner) consume(a topo.Arc, v units.BitRate) {
	for i, b := range p.consumedArcs {
		if b == a {
			p.consumedVals[i] += v
			return
		}
	}
	p.consumedArcs = append(p.consumedArcs, a)
	p.consumedVals = append(p.consumedVals, v)
}

// arcsResidual returns the bottleneck residual along resolved arcs.
func arcsResidual(arcs []topo.Arc, residual ResidualFunc) units.BitRate {
	min := units.BitRate(0)
	for i, a := range arcs {
		r := residual(a)
		if i == 0 || r < min {
			min = r
		}
	}
	return min
}

// subpathArcs resolves the sub-path to directed arcs. Sub-paths come from
// route.Subpaths over the same graph, so resolution cannot fail.
func (p *Planner) subpathArcs(sub route.Subpath) []topo.Arc {
	arcs, err := sub.Path.Arcs(p.g)
	if err != nil {
		panic("core: invalid detour sub-path: " + err.Error())
	}
	return arcs
}
