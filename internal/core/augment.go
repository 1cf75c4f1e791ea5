package core

import (
	"errors"
	"fmt"
	"time"

	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// This file implements the network-design extension the paper sketches
// in §6: because PCF's failure models are tractable, the same
// formulations answer the provisioning question "how much capacity must
// be added, and where, so that a target fraction of the demand is
// guaranteed under all failures?" — capacities simply become variables
// and the objective minimizes the total addition.

// AugmentPlan is the result of a capacity augmentation solve.
type AugmentPlan struct {
	// Added is the extra capacity per link (same in both directions).
	Added map[topology.LinkID]float64
	// Total is Σ Added.
	Total float64
	// TunnelRes is the supporting reservation plan at the target scale.
	TunnelRes map[tunnels.ID]float64
	SolveTime time.Duration
	Instance  *Instance
	Target    float64
}

// SolveAugmentPCFTF finds the cheapest capacity augmentation (total
// added Gbps across links) under which PCF-TF can guarantee
// zTarget times every demand over the instance's failure set.
func SolveAugmentPCFTF(in *Instance, zTarget float64, opts SolveOptions) (*AugmentPlan, error) {
	o := opts.withDefaults()
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("augment: %w", err)
	}
	if zTarget <= 0 {
		return nil, fmt.Errorf("augment: target scale must be positive")
	}
	start := time.Now()

	m := lp.NewModel()
	mv := newMasterVars(in)
	for _, p := range in.Tunnels.Pairs() {
		for _, tid := range in.Tunnels.ForPair(p) {
			mv.a[tid] = m.AddNonNeg()
		}
	}
	// The target scale is a constant: zExpr returns zTarget·d.
	mv.zExpr = func(p topology.Pair) *lp.Expr {
		return lp.NewExpr().AddConst(zTarget * in.TM.At(p))
	}
	// Capacity per arc with a per-link augmentation variable.
	extra := make([]lp.Var, in.Graph.NumLinks())
	for l := 0; l < in.Graph.NumLinks(); l++ {
		extra[l] = m.AddNonNeg()
	}
	perArc := make([][]lp.Var, in.Graph.NumArcs())
	for _, p := range in.Tunnels.Pairs() {
		for _, tid := range in.Tunnels.ForPair(p) {
			for _, arc := range in.Tunnels.Tunnel(tid).Path.Arcs {
				perArc[arc] = append(perArc[arc], mv.a[tid])
			}
		}
	}
	for arc, vars := range perArc {
		if len(vars) == 0 {
			continue
		}
		e := lp.NewExpr()
		for _, v := range vars {
			e.Add(1, v)
		}
		e.Add(-1, extra[topology.LinkOf(topology.ArcID(arc))])
		m.AddConstraint(e, lp.LE, in.Graph.ArcCapacity(topology.ArcID(arc)))
	}
	obj := lp.NewExpr()
	for _, v := range extra {
		obj.Add(1, v)
	}
	m.SetObjective(obj, lp.Minimize)

	sol, _, err := solveRobust(m, buildSpecs(in, mv, buildPCFAdversary), o)
	if errors.Is(err, lp.ErrInfeasible) {
		return nil, fmt.Errorf("augment: %w (target may be unreachable with these tunnels)", err)
	}
	if err != nil {
		return nil, fmt.Errorf("augment: %w", err)
	}

	plan := &AugmentPlan{
		Added:     map[topology.LinkID]float64{},
		TunnelRes: map[tunnels.ID]float64{},
		SolveTime: time.Since(start),
		Instance:  in,
		Target:    zTarget,
	}
	for l, v := range extra {
		if val := clampTiny(sol.Value(v)); val > 0 {
			plan.Added[topology.LinkID(l)] = val
			plan.Total += val
		}
	}
	for tid, v := range mv.a {
		plan.TunnelRes[tid] = clampTiny(sol.Value(v))
	}
	return plan, nil
}

// Apply returns a copy of the instance's graph with the augmentation
// added, for verifying the target is met.
func (ap *AugmentPlan) Apply() *topology.Graph {
	g := topology.New(ap.Instance.Graph.Name + "-augmented")
	for i := 0; i < ap.Instance.Graph.NumNodes(); i++ {
		g.AddNode(ap.Instance.Graph.NodeName(topology.NodeID(i)))
	}
	for _, l := range ap.Instance.Graph.Links() {
		g.AddWeightedLink(l.A, l.B, l.Capacity+ap.Added[l.ID], l.Weight)
	}
	return g
}
