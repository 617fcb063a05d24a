package lsh

import (
	"bytes"
	"fmt"

	"d3l/internal/persist"
)

// maxForestLayout bounds the decoded tree layout: no real configuration
// comes close (the engine runs 8×32 and 4×8), and the cap keeps a
// corrupt or adversarial snapshot from requesting absurd allocations.
const maxForestLayout = 1 << 16

// Encode serialises the forest — layout, lifecycle state, and the
// sorted key/id arrays of every tree — into a snapshot buffer. A tree
// is written in its merged form (base and delta as one run, dead ids
// left out) without changing f, so the bytes do not depend on when the
// last fold ran, and DecodeForest restores a forest that answers every
// Query, Insert and Delete exactly like the original without
// re-sorting.
func (f *Forest) Encode(b *persist.Buffer) {
	b.U32(uint32(f.numTrees))
	b.U32(uint32(f.hashesPerTree))
	b.U64(uint64(f.count))
	b.Bool(f.indexed)
	for t := range f.trees {
		r := f.merged(&f.trees[t])
		b.Bytes(r.keys)
		b.I32s(r.ids)
	}
}

// NumTrees reports the forest's tree count.
func (f *Forest) NumTrees() int { return f.numTrees }

// HashesPerTree reports how many hash values each tree consumes.
func (f *Forest) HashesPerTree() int { return f.hashesPerTree }

// CheckIDs verifies that every indexed item id lies in [0, limit) —
// decoded forests are checked against the profile count so a corrupt
// snapshot can never make a query index out of bounds.
func (f *Forest) CheckIDs(limit int32) error {
	for t := range f.trees {
		for _, ids := range [][]int32{f.trees[t].base.ids, f.trees[t].delta.ids} {
			for _, id := range ids {
				if id < 0 || id >= limit {
					return fmt.Errorf("forest item id %d outside [0,%d)", id, limit)
				}
			}
		}
	}
	return nil
}

// sortedKeys reports whether the h-byte keys are in non-decreasing order.
func sortedKeys(keys []byte, h int) bool {
	for i := h; i < len(keys); i += h {
		if bytes.Compare(keys[i-h:i], keys[i:i+h]) > 0 {
			return false
		}
	}
	return true
}

// DecodeForest reconstructs a forest written by Encode, validating the
// layout and the per-tree array lengths against the recorded item
// count so a decoded forest can never index out of bounds, and the key
// order of an indexed forest's trees, which every binary search and
// every fold assumes: a checksum-valid snapshot with an unsorted tree
// would otherwise answer wrongly without a word.
func DecodeForest(r *persist.Reader) (*Forest, error) {
	numTrees := int(r.U32())
	hashesPerTree := int(r.U32())
	count := int(r.U64())
	indexed := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if numTrees <= 0 || numTrees > maxForestLayout || hashesPerTree <= 0 || hashesPerTree > maxForestLayout {
		return nil, fmt.Errorf("%w: forest layout %dx%d", persist.ErrCorrupt, numTrees, hashesPerTree)
	}
	if count < 0 {
		return nil, fmt.Errorf("%w: forest count %d", persist.ErrCorrupt, count)
	}
	f, err := NewForest(numTrees, hashesPerTree)
	if err != nil {
		return nil, err
	}
	f.count = count
	f.indexed = indexed
	for t := 0; t < numTrees; t++ {
		keys := r.Bytes()
		ids := r.I32s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(ids) != count || len(keys) != count*hashesPerTree {
			return nil, fmt.Errorf("%w: forest tree %d has %d keys / %d ids for count %d",
				persist.ErrCorrupt, t, len(keys), len(ids), count)
		}
		if indexed && !sortedKeys(keys, hashesPerTree) {
			return nil, fmt.Errorf("%w: forest tree %d is not sorted", persist.ErrCorrupt, t)
		}
		f.trees[t].base = run{keys: keys, ids: ids}
	}
	return f, nil
}
