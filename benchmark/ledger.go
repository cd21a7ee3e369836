package main

import (
	"slices"
	"sort"

	"repro/internal/wire"
)

// The ledger turns the light phase's spans into a tree and into self time
// per layer. Parents are inferred from what the decorators can see:
//
//   - a client call belongs to the operation its session was running;
//   - a handler serving a client request (or a forwarded read leg, which
//     names its client) belongs to that operation's call to this server;
//   - a handler serving a server's request belongs to that server's
//     enclosing call to this node;
//   - a server's call, and a WAL append, belong to the handler enclosing
//     them on the same node.
//
// Background work (replication streams, stabilization) has no operation and
// stays a root. Each operation's tree is then flattened onto the operation's
// own interval — every instant belongs to the deepest span active then — so
// a layer's share is its self time on the blocking path and the layers sum
// to the operation's duration.

// ledgerResult is per operation kind (0 = ROT, 1 = PUT).
type ledgerResult struct {
	ops      [2]int
	selfUs   [2][numKinds]float64 // mean time per op spent in each layer (sums to the mean op)
	residual [2]float64           // (p50 op - p50 blocked in calls) / p50 op
}

// enclosing returns the index of the latest-starting span of list (indices
// into spans, sorted by start) that covers [start, end] and satisfies ok.
func enclosing(spans []span, list []int32, start, end int64, ok func(*span) bool) int32 {
	i := sort.Search(len(list), func(i int) bool { return spans[list[i]].Start > start })
	// A handler may return a little after its caller saw the reply, and
	// clocks are read on both sides of a scheduler hop: allow slack.
	const slack = 50_000
	for j := i - 1; j >= 0 && j >= i-64; j-- {
		s := &spans[list[j]]
		if s.End+slack >= end && ok(s) {
			return list[j]
		}
	}
	return -1
}

func buildLedger(spans []span) ledgerResult {
	byStart := func(list []int32) {
		slices.SortFunc(list, func(a, b int32) int {
			return int(spans[a].Start - spans[b].Start)
		})
	}
	opRoot := make(map[uint64]int32)
	handlesAt := make(map[wire.Addr][]int32) // handler spans by server
	callsFrom := make(map[wire.Addr][]int32) // call spans by caller
	callsOf := make(map[uint64][]int32)      // client call spans by operation
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		switch s.Kind {
		case kindOp:
			opRoot[s.Op] = int32(i)
		case kindHandle:
			handlesAt[s.Node] = append(handlesAt[s.Node], int32(i))
		case kindCall:
			if s.Op != 0 {
				callsOf[s.Op] = append(callsOf[s.Op], int32(i))
			} else {
				callsFrom[s.Node] = append(callsFrom[s.Node], int32(i))
			}
		}
	}
	for _, l := range handlesAt {
		byStart(l)
	}
	for _, l := range callsFrom {
		byStart(l)
	}
	anySpan := func(*span) bool { return true }
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Kind == kindCall && s.Op != 0:
			if r, ok := opRoot[s.Op]; ok {
				s.Parent = r
			}
		case s.Kind == kindCall, s.Kind == kindWAL:
			s.Parent = enclosing(spans, handlesAt[s.Node], s.Start, s.End, anySpan)
		case s.Kind == kindHandle && s.Op != 0:
			// The client's call to this server, else its one 1.5-round
			// exchange, else the operation itself.
			for _, c := range callsOf[s.Op] {
				if cs := &spans[c]; cs.Peer == s.Node || cs.Peer == 0 {
					s.Parent = c
				}
			}
			if r, ok := opRoot[s.Op]; ok && s.Parent < 0 {
				s.Parent = r
			}
		case s.Kind == kindHandle && s.Peer.IsServer():
			node, cls := s.Node, s.Class
			s.Parent = enclosing(spans, callsFrom[s.Peer], s.Start, s.End, func(c *span) bool {
				return c.Peer == node && c.Class == cls
			})
		}
	}

	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	var res ledgerResult
	var opNs, blockedNs [2][]int64
	type node struct {
		idx   int32
		depth int
	}
	var tree []node
	var collect func(i int32, depth int)
	collect = func(i int32, depth int) {
		tree = append(tree, node{i, depth})
		for _, k := range children[i] {
			collect(k, depth+1)
		}
	}
	var edges []int64
	for _, root := range opRoot {
		r := &spans[root]
		k := 0
		if r.Put {
			k = 1
		}
		// Flatten the tree onto the operation's own interval: every instant
		// goes to the deepest span active then, so the layers add up to the
		// operation's duration however many legs ran in parallel.
		tree, edges = tree[:0], edges[:0]
		collect(root, 0)
		for _, n := range tree {
			s := &spans[n.idx]
			edges = append(edges, min(max(s.Start, r.Start), r.End), min(max(s.End, r.Start), r.End))
		}
		slices.Sort(edges)
		var acc [numKinds]int64
		for e := 0; e+1 < len(edges); e++ {
			lo, hi := edges[e], edges[e+1]
			if hi == lo {
				continue
			}
			deepest := node{root, 0}
			for _, n := range tree {
				if s := &spans[n.idx]; n.depth > deepest.depth && s.Start <= lo && s.End >= hi {
					deepest = n
				}
			}
			acc[spans[deepest.idx].Kind] += hi - lo
		}
		res.ops[k]++
		for l := range acc {
			res.selfUs[k][l] += float64(acc[l]) / 1e3
		}
		opNs[k] = append(opNs[k], r.End-r.Start)
		blockedNs[k] = append(blockedNs[k], r.End-r.Start-acc[kindOp])
	}
	for k := range res.ops {
		if res.ops[k] == 0 {
			continue
		}
		for l := range res.selfUs[k] {
			res.selfUs[k][l] /= float64(res.ops[k])
		}
		slices.Sort(opNs[k])
		slices.Sort(blockedNs[k])
		if p := pct(opNs[k], 50); p > 0 {
			res.residual[k] = (p - pct(blockedNs[k], 50)) / p
		}
	}
	return res
}
