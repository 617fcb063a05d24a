// Package shard is the horizontal scaling subsystem: it splits one
// d3l lake across N independent engine shards and answers queries by
// scatter-gather, byte-identically to the monolith.
//
// The design has three layers:
//
//   - Placement: a consistent-hash ring mapping table names to shards,
//     so most placements survive a shard-count change (only ~1/N of
//     the tables move when a shard is added) and every participant —
//     builder, in-process set, HTTP coordinator — derives the same
//     owner from the same (shards, vnodes) pair without coordination.
//   - Set: N in-process *d3l.Engine shards behind the server.Engine
//     surface, running the two-phase exact protocol from
//     internal/core/shardsearch.go (probe depth-counts → merge global
//     stop depths → gather partials at those depths → merge under the
//     unchanged (Distance, Name) total order).
//   - Remote: the same protocol fanned out over HTTP to remote shard
//     replicas, with per-shard timeouts, retry/hedging, and an opt-in
//     partial-failure mode.
//
// Exactness rests on the id-lockstep discipline: every table enters
// every shard in the same order — the owner with a real Add, the peers
// with a tombstone MirrorAdd — so table and attribute ids, and hence
// the Eq. 2 ECDF sample spaces after merging, are identical to the
// monolith's.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count per shard on the ring: the
// ring stays tiny (N×64 uint64s). It does not make the shards even.
// Measured: the two-shard ring's arcs cover 46.2 % / 53.8 % of the hash
// space (three shards 46 / 29 / 25 %, four 41 / 27 / 25 / 7 % — FNV-1a
// of labels that differ in a digit or two spreads poorly over the high
// bits the ring is ordered by), and the 1 000 tables of the benchmark
// lake, whose names are as alike as the labels, land 415 / 585 on two
// shards, so the fuller shard does 17 % more than its share of every
// query. Evening it out (a mixing step on the ring hash, more points)
// moves tables, and with them every built manifest and committed
// fixture: ROADMAP "Rebalance the ring" has the question.
const DefaultVnodes = 64

// Placement maps table names to shard ordinals through a consistent-
// hash ring. It is immutable after construction and safe for
// concurrent use.
type Placement struct {
	shards int
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewPlacement builds the ring for n shards with v virtual nodes per
// shard (v <= 0 selects DefaultVnodes). Two placements built with the
// same (n, v) are identical, on any host.
func NewPlacement(n, v int) (*Placement, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: placement needs at least 1 shard, got %d", n)
	}
	if v <= 0 {
		v = DefaultVnodes
	}
	p := &Placement{
		shards: n,
		vnodes: v,
		points: make([]ringPoint, 0, n*v),
	}
	for s := 0; s < n; s++ {
		for k := 0; k < v; k++ {
			h := fnv64a(fmt.Sprintf("shard-%d-vnode-%d", s, k))
			p.points = append(p.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(p.points, func(i, j int) bool {
		a, b := p.points[i], p.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash collisions between vnode labels are astronomically
		// unlikely but must still order deterministically.
		return a.shard < b.shard
	})
	return p, nil
}

// Shards reports the shard count the ring was built for.
func (p *Placement) Shards() int { return p.shards }

// Vnodes reports the per-shard virtual node count.
func (p *Placement) Vnodes() int { return p.vnodes }

// Owner maps a table name to the shard owning it: the first ring point
// clockwise of the name's hash, wrapping at the top.
func (p *Placement) Owner(name string) int {
	h := fnv64a(name)
	i := sort.Search(len(p.points), func(i int) bool {
		return p.points[i].hash >= h
	})
	if i == len(p.points) {
		i = 0
	}
	return p.points[i].shard
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
