package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// This file serializes plans for handoff to a deployment pipeline: an
// SDN controller installs the tunnels and per-tunnel reservations; the
// logical sequences (with their activation conditions) configure the
// label-stacking forwarding of §4.2.

// planJSON is the stable wire format of a Plan.
type planJSON struct {
	Scheme    string          `json:"scheme"`
	Objective string          `json:"objective"`
	Value     float64         `json:"value"`
	SolveMS   int64           `json:"solve_ms"`
	Demands   []demandJSON    `json:"demands"`
	Tunnels   []tunnelResJSON `json:"tunnels"`
	LSs       []lsJSON        `json:"logical_sequences,omitempty"`
	Degraded  []string        `json:"degraded,omitempty"`
}

type demandJSON struct {
	Src     int32   `json:"src"`
	Dst     int32   `json:"dst"`
	Demand  float64 `json:"demand"`
	Granted float64 `json:"granted"`
}

type tunnelResJSON struct {
	Src         int32   `json:"src"`
	Dst         int32   `json:"dst"`
	Nodes       []int32 `json:"nodes"`
	Reservation float64 `json:"reservation"`
}

type lsJSON struct {
	Src         int32   `json:"src"`
	Dst         int32   `json:"dst"`
	Hops        []int32 `json:"hops"`
	Reservation float64 `json:"reservation"`
	AliveLinks  []int32 `json:"alive_links,omitempty"`
	DeadLinks   []int32 `json:"dead_links,omitempty"`
}

// WriteJSON serializes the plan (reservations, grants, and logical
// sequences with conditions) to w.
func (p *Plan) WriteJSON(w io.Writer) error {
	in := p.Instance
	out := planJSON{
		Scheme:    p.Scheme,
		Objective: p.Objective.String(),
		Value:     p.Value,
		SolveMS:   int64(p.SolveTime / time.Millisecond),
		Degraded:  p.Degraded,
	}
	for _, pair := range in.DemandPairs() {
		out.Demands = append(out.Demands, demandJSON{
			Src: int32(pair.Src), Dst: int32(pair.Dst),
			Demand:  in.TM.At(pair),
			Granted: p.ScaledDemand(pair),
		})
	}
	var tids []tunnels.ID
	for tid := range p.TunnelRes {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		if p.TunnelRes[tid] <= 0 {
			continue
		}
		t := in.Tunnels.Tunnel(tid)
		nodes := t.Path.Nodes(in.Graph)
		n32 := make([]int32, len(nodes))
		for i, n := range nodes {
			n32[i] = int32(n)
		}
		out.Tunnels = append(out.Tunnels, tunnelResJSON{
			Src: int32(t.Pair.Src), Dst: int32(t.Pair.Dst),
			Nodes: n32, Reservation: p.TunnelRes[tid],
		})
	}
	for _, q := range in.LSs {
		if p.LSRes[q.ID] <= 0 {
			continue
		}
		entry := lsEntry(q)
		entry.Reservation = p.LSRes[q.ID]
		out.LSs = append(out.LSs, entry)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadPlanJSON loads a serialized plan back against its instance. The
// instance must carry the same topology, demand, tunnels and LSs the
// plan was computed for; tunnels and LSs are matched structurally.
func ReadPlanJSON(r io.Reader, in *Instance) (*Plan, error) {
	var pj planJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	plan := &Plan{
		Scheme:    pj.Scheme,
		Value:     pj.Value,
		Z:         map[topology.Pair]float64{},
		TunnelRes: map[tunnels.ID]float64{},
		LSRes:     map[LSID]float64{},
		SolveTime: time.Duration(pj.SolveMS) * time.Millisecond,
		Instance:  in,
		Degraded:  pj.Degraded,
	}
	switch pj.Objective {
	case Throughput.String():
		plan.Objective = Throughput
	default:
		plan.Objective = DemandScale
	}
	for _, d := range pj.Demands {
		pair := topology.Pair{Src: topology.NodeID(d.Src), Dst: topology.NodeID(d.Dst)}
		dem := in.TM.At(pair)
		if dem <= 0 {
			return nil, fmt.Errorf("core: plan demand %v not in instance", pair)
		}
		plan.Z[pair] = d.Granted / dem
	}
	// Structural tunnel matching: node sequence per pair.
	index := map[string]tunnels.ID{}
	for _, pair := range in.Tunnels.Pairs() {
		for _, tid := range in.Tunnels.ForPair(pair) {
			index[tunnelKey(in, tid)] = tid
		}
	}
	for _, t := range pj.Tunnels {
		key := fmt.Sprint(t.Src, t.Dst, t.Nodes)
		tid, ok := index[key]
		if !ok {
			return nil, fmt.Errorf("core: plan tunnel %v->%v via %v not in instance", t.Src, t.Dst, t.Nodes)
		}
		plan.TunnelRes[tid] = t.Reservation
	}
	// Structural LS matching: pair, hops and condition. Walked
	// backwards, so the first of identical LSs takes the reservation.
	lsIndex := map[string]LSID{}
	for i := len(in.LSs) - 1; i >= 0; i-- {
		lsIndex[lsEntry(in.LSs[i]).key()] = in.LSs[i].ID
	}
	for _, e := range pj.LSs {
		id, ok := lsIndex[e.key()]
		if !ok {
			return nil, fmt.Errorf("core: plan LS %v->%v via %v (alive %v, dead %v) not in instance",
				e.Src, e.Dst, e.Hops, e.AliveLinks, e.DeadLinks)
		}
		plan.LSRes[id] = e.Reservation
	}
	return plan, nil
}

// lsEntry is q's wire form without its reservation.
func lsEntry(q LogicalSequence) lsJSON {
	e := lsJSON{Src: int32(q.Pair.Src), Dst: int32(q.Pair.Dst), Hops: make([]int32, len(q.Hops))}
	for i, h := range q.Hops {
		e.Hops[i] = int32(h)
	}
	if q.Cond != nil {
		for _, l := range q.Cond.AliveLinks {
			e.AliveLinks = append(e.AliveLinks, int32(l))
		}
		for _, l := range q.Cond.DeadLinks {
			e.DeadLinks = append(e.DeadLinks, int32(l))
		}
	}
	return e
}

// key identifies an LS structurally: its pair, hops and condition.
func (e lsJSON) key() string {
	return fmt.Sprint(e.Src, e.Dst, e.Hops, e.AliveLinks, e.DeadLinks)
}

func tunnelKey(in *Instance, tid tunnels.ID) string {
	t := in.Tunnels.Tunnel(tid)
	nodes := t.Path.Nodes(in.Graph)
	n32 := make([]int32, len(nodes))
	for i, n := range nodes {
		n32[i] = int32(n)
	}
	return fmt.Sprint(int32(t.Pair.Src), int32(t.Pair.Dst), n32)
}
