package core

import (
	"fmt"
	"slices"

	"d3l/internal/minhash"
	"d3l/internal/persist"
)

// This file holds the engine's signature table and the per-column
// distance memo built on it.
//
// A lake repeats its attribute names and its value formats, so many
// attributes hold equal MinHash signatures: on the serving benchmark's
// lake, 4 261 attributes hold 114 distinct name signatures and 19
// distinct format signatures. The table keeps one copy of each distinct
// value, and an attribute's record holds the ids of its QSig, TSig and
// RSig, never the signatures themselves (attr.go). Two signatures share a
// copy only when they are equal slot for slot (a hash finds the
// candidates, slices.Equal decides), so sharing changes no value any
// reader sees. Ids never leave the process: a snapshot holds the table
// once and the file carries first-use positions, not engine ids
// (sigPositions), and the shard wire carries the signatures themselves.
//
// References are counted per record field: a record holds one reference
// per nonzero id. A record that becomes a stub gives its references
// back, and a copy no record holds leaves the table, so write churn does
// not accumulate dead signatures. The table changes only under the
// engine's write lock (or before the engine is shared), and nothing ever
// writes into a copy.

// sigTable is the engine's table of distinct signatures. Id 0 is "no id":
// the id of a nil signature. The zero value is ready to use.
type sigTable struct {
	sigs  []minhash.Signature // id -> the one copy; nil for id 0 and free ids
	refs  []int32             // id -> references records hold
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

// sig is the copy under id; nil for id 0.
func (t *sigTable) sig(id int32) minhash.Signature {
	if id == 0 {
		return nil
	}
	return t.sigs[id]
}

// intern takes a reference to sig's value and returns its id. On a miss
// sig becomes the copy. A nil signature is id 0 and no reference.
func (t *sigTable) intern(sig minhash.Signature) int32 {
	if len(sig) == 0 {
		return 0
	}
	h := sigHash(sig)
	for id := t.heads[h]; id != 0; id = t.next[id] {
		if slices.Equal(t.sigs[id], sig) {
			t.refs[id]++
			return id
		}
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
	return id
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

// minSigEnc is the smallest encoding of a SecSigs entry: a count of at
// least a byte and one slot (a nil signature is position 0, never an
// entry).
const minSigEnc = 1 + 4

// load installs a snapshot's signature table (SecSigs) into an empty
// table: the signatures in file order under ids 1, 2, …, so an id is the
// signature's position in the file. No record holds a reference yet;
// refer hands them out, and allHeld checks that every copy was taken. An
// empty entry or two equal ones are corrupt: the table keeps one copy of
// each value, and nil is no entry.
func (t *sigTable) load(r *persist.Reader) error {
	// A count past the int range comes out negative, which the check
	// below refuses.
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > r.Remaining()/minSigEnc {
		return fmt.Errorf("%w: %d signatures declared in %d bytes", persist.ErrCorrupt, n, r.Remaining())
	}
	t.heads = make(map[uint64]int32, n)
	t.sigs = make([]minhash.Signature, 1, n+1)
	t.refs, t.next = make([]int32, n+1), make([]int32, n+1)
	for id := int32(1); int(id) <= n; id++ {
		sig := minhash.Signature(r.VU32s(nil))
		if err := r.Err(); err != nil {
			return err
		}
		if len(sig) == 0 {
			return fmt.Errorf("%w: signature %d is empty", persist.ErrCorrupt, id)
		}
		h := sigHash(sig)
		for other := t.heads[h]; other != 0; other = t.next[other] {
			if slices.Equal(t.sigs[other], sig) {
				return fmt.Errorf("%w: signatures %d and %d are equal", persist.ErrCorrupt, other, id)
			}
		}
		t.sigs = append(t.sigs, sig)
		t.next[id] = t.heads[h]
		t.heads[h] = id
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after %d signatures", persist.ErrCorrupt, r.Remaining(), n)
	}
	return nil
}

// refer points a at the copies load installed under positions q, tp and
// rp, taking a reference to each; the ids are the positions, and
// position 0 is a nil signature.
func (t *sigTable) refer(a *attr, q, tp, rp uint64) error {
	for _, pos := range [3]uint64{q, tp, rp} {
		if pos >= uint64(len(t.sigs)) {
			return fmt.Errorf("%w: profile %s refers to signature %d of %d", persist.ErrCorrupt, a.name, pos, len(t.sigs)-1)
		}
		if pos != 0 {
			t.refs[pos]++
		}
	}
	a.q, a.t, a.r = int32(q), int32(tp), int32(rp)
	return nil
}

// allHeld reports a copy no record holds a reference to: a loaded table
// keeps only signatures some record uses.
func (t *sigTable) allHeld() error {
	for id := 1; id < len(t.sigs); id++ {
		if t.refs[id] == 0 {
			return fmt.Errorf("%w: signature %d is held by no profile", persist.ErrCorrupt, id)
		}
	}
	return nil
}

// verify checks the table against attrs, the records holding it: each
// id's count is the references the records hold to it, and an id no
// record holds has no copy; every copy is on its hash chain once; and no
// two copies are equal.
func (t *sigTable) verify(attrs []attr) error {
	holds := make([]int32, len(t.sigs))
	for i := range attrs {
		for _, id := range [3]int32{attrs[i].q, attrs[i].t, attrs[i].r} {
			switch {
			case id == 0:
			case id < 0 || int(id) >= len(t.sigs):
				return fmt.Errorf("attribute %d (%s) holds signature id %d of %d", i, attrs[i].name, id, len(t.sigs))
			default:
				holds[id]++
			}
		}
	}
	copies := 0
	for id := 1; id < len(t.sigs); id++ {
		if t.refs[id] != holds[id] {
			return fmt.Errorf("signature %d counts %d references, records hold %d", id, t.refs[id], holds[id])
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
// table and the records disagree (verify). BuildEngine, DecodeEngine and
// every write (splice) assert it on their way out. Caller holds e.mu or
// owns the engine.
func (e *Engine) assertSigTable(site string) {
	if !debugAsserts {
		return
	}
	if err := e.sigs.verify(e.attrs); err != nil {
		panic("core: " + site + ": " + err.Error())
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
			a := &e.attrs[attrID]
			count(a.q, EvidenceName, &names)
			if !a.is(attrNumeric) {
				count(a.t, EvidenceValue, &values)
			}
			count(a.r, EvidenceFormat, &formats)
		}
	}
	return names, values, formats
}

// memoSlots is how many codes distMemo keeps per evidence type; a
// power of two.
const memoSlots = 512

// memoSlot is one remembered distance code: to the candidate signature
// with id, valid while epoch is the memo's.
type memoSlot struct {
	id    int32
	epoch uint32
	code  uint16
}

// distMemo remembers, for the one target column being gathered, its N, V
// and F distance codes to candidate signatures by their table id, so
// that each distinct candidate signature is compared with the column's
// once. A code is a pure function of the two signatures, so a remembered
// one is the one a comparison would return. The memo is direct-mapped on
// the id, like a hardware cache: a collision evicts, and the evicted code
// is computed again when asked for. Its size is fixed, whatever the lake
// holds; it lives on a worker arena.
type distMemo struct {
	epoch uint32
	slots [EvidenceFormat + 1][memoSlots]memoSlot
}

// reset forgets every code: the next column has other signatures. The
// slots are epoch-stamped, so it is one increment.
func (m *distMemo) reset() {
	m.epoch++
	if m.epoch == 0 { // wraparound: stale stamps could alias
		clear(m.slots[:])
		m.epoch = 1
	}
}

// code is g.jaccardCode(a, b) for evidence type t, where a is the target
// column's signature and b the candidate's, the copy under id bID in
// sigs, which is read only when the memo misses. A nil memo, or id 0,
// computes it directly.
func (m *distMemo) code(g *distanceGrid, t Evidence, a minhash.Signature, sigs *sigTable, bID int32) uint16 {
	if m == nil || bID == 0 {
		return g.jaccardCode(a, sigs.sig(bID))
	}
	s := &m.slots[t][bID&(memoSlots-1)]
	if s.id == bID && s.epoch == m.epoch {
		return s.code
	}
	c := g.jaccardCode(a, sigs.sigs[bID])
	*s = memoSlot{id: bID, epoch: m.epoch, code: c}
	return c
}
