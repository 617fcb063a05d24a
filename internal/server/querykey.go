package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// This file computes canonical query fingerprints — the result-cache
// keys. A key must satisfy two properties:
//
//  1. Equal queries against equal engine states collide: two requests
//     that would produce byte-identical answers hash to the same key,
//     however the client formatted its JSON (field order, whitespace
//     and number formatting are normalised away by decoding into the
//     request structs first).
//  2. Everything result-relevant is covered: the endpoint kind, every
//     per-query option, the full target table content (name, column
//     names, every cell — all of which feed profiling), the engine
//     fingerprint, which moves on every mutation, making
//     pre-mutation keys unreachable afterwards, and the server's swap
//     generation, which moves on every engine swap — covering the one
//     case fingerprints cannot (a reloaded snapshot with identical
//     identity but different cell data).
//
// SHA-256 keeps accidental collisions out of reach — a collision here
// would silently serve one query's answer to another, so a 64-bit
// hash's birthday bound is not acceptable for a cache that may hold
// millions of distinct queries over a process lifetime.

// keyWriter incrementally hashes length-prefixed fields, so that
// ("ab","c") and ("a","bc") cannot collide.
type keyWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyWriter(kind string, engineFP, swapGen uint64) *keyWriter {
	w := &keyWriter{h: sha256.New()}
	w.str(kind)
	w.u64(engineFP)
	w.u64(swapGen)
	return w
}

func (w *keyWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *keyWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *keyWriter) table(t *TableJSON) {
	w.str(t.Name)
	w.u64(uint64(len(t.Columns)))
	for _, c := range t.Columns {
		w.str(c)
	}
	w.u64(uint64(len(t.Rows)))
	for _, row := range t.Rows {
		w.u64(uint64(len(row)))
		for _, cell := range row {
			w.str(cell)
		}
	}
}

func (w *keyWriter) sum() string {
	return hex.EncodeToString(w.h.Sum(nil))
}

// shardTargetKey keys the shard replica's profiled-target memo: the
// target content alone (profiling reads nothing else of the request)
// under the swap generation (profiles belong to one engine's options).
func shardTargetKey(swapGen uint64, t *TableJSON) string {
	w := newKeyWriter("shard-target", 0, swapGen)
	w.table(t)
	return w.sum()
}

// resultKey keys the responses of the five ranking routes. It folds in
// the route kind (routes render one answer differently), every per-query
// option from the canonicalised plan, the ?partial=true opt-in (a
// degraded answer from a sharded backend must never be replayed to a
// fail-closed request, and vice versa — the bodies differ) and the
// targets in order (a batch response is indexed like its request). Two
// requests differing in any result-relevant knob — k, joins,
// explanation target, weights, evidence subset, candidate budget — can
// never share a body, while spelled-differently-but-equal requests
// (absent vs explicit default k, reordered evidence lists, a −0.0
// weight vs +0.0) do. Weights are hashed as IEEE 754 bits — exact
// equality is the right notion for a cache key — which is why plan()
// canonicalises negative zero before the weights reach this point.
func resultKey(kind string, engineFP, swapGen uint64, p *queryPlan, partial bool, tables []TableJSON) string {
	w := newKeyWriter(kind, engineFP, swapGen)
	w.u64(uint64(p.k))
	w.bool(partial)
	w.bool(p.joins)
	w.str(p.explainFor)
	w.bool(p.weightsSet)
	if p.weightsSet {
		for _, f := range p.weights {
			w.u64(math.Float64bits(f))
		}
	}
	w.u64(p.evidenceMask)
	w.u64(uint64(p.budget))
	w.u64(uint64(len(tables)))
	for i := range tables {
		w.table(&tables[i])
	}
	return w.sum()
}
