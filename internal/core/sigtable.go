package core

import (
	"fmt"
	"slices"

	"d3l/internal/minhash"
)

// This file holds the engine's signature table and the per-column
// distance memo built on it.
//
// A lake repeats its attribute names and its value formats, so many
// attributes hold equal MinHash signatures: on the serving benchmark's
// lake, 4 261 attributes hold 114 distinct name signatures and 19
// distinct format signatures. The table keeps one copy of each distinct
// value; a profile's QSig, TSig and RSig point at that copy and carry its
// id. Two signatures share a copy only when they are equal slot for slot
// (a hash finds the candidates, slices.Equal decides), so sharing changes
// no value any reader sees. Ids never leave the process: snapshots and
// the shard wire carry the signatures themselves.
//
// References are counted per profile field: a profile holds one
// reference per signature field it points at the table with. A profile
// that becomes a stub gives its references back, and a copy no profile
// holds leaves the table, so write churn does not accumulate dead
// signatures. The table changes only under the engine's write lock (or
// before the engine is shared), and nothing ever writes into a copy.

// sigTable is the engine's table of distinct signatures. Id 0 is "no id":
// the id of a nil signature, and of every signature of a profile no
// engine holds (a query target). The zero value is ready to use.
type sigTable struct {
	sigs  []minhash.Signature // id -> the one copy; nil for id 0 and free ids
	refs  []int32             // id -> references profiles hold
	next  []int32             // id -> next id in its hash chain, 0 at the end
	heads map[uint64]int32    // signature hash -> first id of its chain
	free  []int32             // released ids, taken before new ones
}

// sigHash is FNV-1a over a signature's slots. It only picks a chain; a
// collision costs one slices.Equal.
func sigHash(sig minhash.Signature) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range sig {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// intern takes a reference to sig's value: the table's copy and its id.
// On a miss sig becomes the copy, or, when borrowed (a decoder's
// scratch), a clone of it does. A nil signature is id 0 and no reference.
func (t *sigTable) intern(sig minhash.Signature, borrowed bool) (minhash.Signature, int32) {
	if len(sig) == 0 {
		return nil, 0
	}
	h := sigHash(sig)
	for id := t.heads[h]; id != 0; id = t.next[id] {
		if slices.Equal(t.sigs[id], sig) {
			t.refs[id]++
			return t.sigs[id], id
		}
	}
	if borrowed {
		sig = slices.Clone(sig)
	}
	if t.heads == nil {
		t.heads = make(map[uint64]int32)
		t.sigs, t.refs, t.next = []minhash.Signature{nil}, []int32{0}, []int32{0}
	}
	var id int32
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.sigs[id], t.refs[id] = sig, 1
	} else {
		id = int32(len(t.sigs))
		t.sigs, t.refs, t.next = append(t.sigs, sig), append(t.refs, 1), append(t.next, 0)
	}
	t.next[id] = t.heads[h]
	t.heads[h] = id
	return sig, id
}

// release gives back one reference to id; the last one takes the copy out
// of the table and frees the id.
func (t *sigTable) release(id int32) {
	if id == 0 {
		return
	}
	if t.refs[id]--; t.refs[id] > 0 {
		return
	}
	h := sigHash(t.sigs[id])
	if t.heads[h] == id {
		if t.next[id] == 0 {
			delete(t.heads, h)
		} else {
			t.heads[h] = t.next[id]
		}
	} else {
		prev := t.heads[h]
		for t.next[prev] != id {
			prev = t.next[prev]
		}
		t.next[prev] = t.next[id]
	}
	t.sigs[id], t.next[id] = nil, 0
	t.free = append(t.free, id)
}

// hold points p's signatures at the table's copies, taking a reference to
// each. Whatever ids p carried before (another engine's, or none) are
// overwritten, not released.
func (t *sigTable) hold(p *Profile, borrowed bool) {
	p.QSig, p.qID = t.intern(p.QSig, borrowed)
	p.TSig, p.tID = t.intern(p.TSig, borrowed)
	p.RSig, p.rID = t.intern(p.RSig, borrowed)
}

// drop gives back p's references; p is about to become a stub.
func (t *sigTable) drop(p *Profile) {
	t.release(p.qID)
	t.release(p.tID)
	t.release(p.rID)
}

// sigRef is one of a profile's signatures with its id.
type sigRef struct {
	sig minhash.Signature
	id  int32
}

// sigRefs lists p's three signatures with their ids.
func (p *Profile) sigRefs() [3]sigRef {
	return [3]sigRef{{p.QSig, p.qID}, {p.TSig, p.tID}, {p.RSig, p.rID}}
}

// isCopy reports whether sig is the table's copy under id (a nil
// signature is id 0).
func (t *sigTable) isCopy(sig minhash.Signature, id int32) bool {
	if id == 0 || len(sig) == 0 {
		return id == 0 && len(sig) == 0
	}
	if id < 0 || int(id) >= len(t.sigs) {
		return false
	}
	c := t.sigs[id]
	return len(c) == len(sig) && &c[0] == &sig[0]
}

// verify checks the table against profiles, the store holding it: every
// signature a profile holds is the table's copy under the profile's id;
// each id's count is the references the profiles hold to it, and an id
// no profile holds has no copy; every copy is on its hash chain once;
// and no two copies are equal. So equal signatures share one backing
// array, and unequal ones never do.
func (t *sigTable) verify(profiles []Profile) error {
	holds := make([]int32, len(t.sigs))
	for i := range profiles {
		for _, f := range profiles[i].sigRefs() {
			if !t.isCopy(f.sig, f.id) {
				return fmt.Errorf("profile %d (%s) holds a signature that is not the table's copy under its id %d", i, profiles[i].Name, f.id)
			}
			if f.id != 0 {
				holds[f.id]++
			}
		}
	}
	copies := 0
	for id := 1; id < len(t.sigs); id++ {
		if t.refs[id] != holds[id] {
			return fmt.Errorf("signature %d counts %d references, profiles hold %d", id, t.refs[id], holds[id])
		}
		if (t.sigs[id] == nil) != (holds[id] == 0) {
			return fmt.Errorf("signature %d: %d references, copy present %v", id, holds[id], t.sigs[id] != nil)
		}
		if t.sigs[id] != nil {
			copies++
		}
	}
	chained := 0
	for h, id := range t.heads {
		for ; id != 0; id = t.next[id] {
			if t.sigs[id] == nil || sigHash(t.sigs[id]) != h {
				return fmt.Errorf("signature %d is on the wrong hash chain", id)
			}
			for other := t.next[id]; other != 0; other = t.next[other] {
				if slices.Equal(t.sigs[id], t.sigs[other]) {
					return fmt.Errorf("signatures %d and %d are equal copies", id, other)
				}
			}
			chained++
		}
	}
	if chained != copies || len(t.free) != max(len(t.sigs)-1, 0)-copies {
		return fmt.Errorf("%d copies, %d on hash chains, %d free ids of %d", copies, chained, len(t.free), len(t.sigs)-1)
	}
	return nil
}

// assertSigTable panics under the d3ldebug build tag when the signature
// table and the profiles disagree (verify). BuildEngine, DecodeEngine and
// every write (splice) assert it on their way out. Caller holds e.mu or
// owns the engine.
func (e *Engine) assertSigTable(site string) {
	if !debugAsserts {
		return
	}
	if err := e.sigs.verify(e.profiles); err != nil {
		panic("core: " + site + ": " + err.Error())
	}
}

// assertInterned panics under the d3ldebug build tag when p, a profile
// the engine holds, carries a signature that is not the table's copy
// under its id. gatherColumn asserts it of every candidate, because the
// distance memo is keyed by those ids. Caller holds e.mu.
func (e *Engine) assertInterned(p *Profile, site string) {
	if !debugAsserts {
		return
	}
	for _, f := range p.sigRefs() {
		if !e.sigs.isCopy(f.sig, f.id) {
			panic("core: " + site + ": Profile " + p.Name + " holds a signature that is not the table's copy under its id")
		}
	}
}

// DistinctSignatures counts the distinct MinHash signatures the live
// attributes hold, per evidence type: names over every attribute,
// values over the text attributes (those I_V holds), formats over every
// attribute.
func (e *Engine) DistinctSignatures() (names, values, formats int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	seen := make([]uint8, len(e.sigs.sigs)) // per id, a bit per evidence type
	count := func(id int32, t Evidence, n *int) {
		if bit := uint8(1) << t; id != 0 && seen[id]&bit == 0 {
			seen[id] |= bit
			*n++
		}
	}
	for tid, attrs := range e.byTable {
		if !e.alive[tid] {
			continue
		}
		for _, attrID := range attrs {
			p := &e.profiles[attrID]
			count(p.qID, EvidenceName, &names)
			if !p.Numeric {
				count(p.tID, EvidenceValue, &values)
			}
			count(p.rID, EvidenceFormat, &formats)
		}
	}
	return names, values, formats
}

// memoSlots is how many distances distMemo keeps per evidence type; a
// power of two.
const memoSlots = 512

// memoSlot is one remembered distance: to the candidate signature with
// id, valid while epoch is the memo's.
type memoSlot struct {
	id    int32
	epoch uint32
	dist  float64
}

// distMemo remembers, for the one target column being gathered, its N, V
// and F distances to candidate signatures by their table id, so that
// each distinct candidate signature is compared with the column's once.
// A distance is a pure function of the two signatures, so a remembered
// one is the one a comparison would return, bit for bit. The memo is
// direct-mapped on the id, like a hardware cache: a collision evicts,
// and the evicted distance is computed again when asked for. Its size is
// fixed, whatever the lake holds; it lives on a worker arena.
type distMemo struct {
	epoch uint32
	slots [EvidenceFormat + 1][memoSlots]memoSlot
}

// reset forgets every distance: the next column has other signatures.
// Epoch-stamped like visitedEpoch, so it is one increment.
func (m *distMemo) reset() {
	m.epoch++
	if m.epoch == 0 { // wraparound: stale stamps could alias
		clear(m.slots[:])
		m.epoch = 1
	}
}

// jaccard is jaccardDistance(a, b) for evidence type t, where a is the
// target column's signature and b the candidate's, held under id bID. A
// nil memo, or a signature with no id, computes it directly.
func (m *distMemo) jaccard(t Evidence, a, b minhash.Signature, bID int32) float64 {
	if m == nil || bID == 0 {
		return jaccardDistance(a, b)
	}
	s := &m.slots[t][bID&(memoSlots-1)]
	if s.id == bID && s.epoch == m.epoch {
		return s.dist
	}
	d := jaccardDistance(a, b)
	*s = memoSlot{id: bID, epoch: m.epoch, dist: d}
	return d
}
