package lsh

import (
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
// re-sorting. The key array is the one-array form, a key per id, which
// the snapshot format fixes; an un-indexed forest writes its staged
// entries as Add left them.
func (f *Forest) Encode(b *persist.Buffer) {
	b.U32(uint32(f.numTrees))
	b.U32(uint32(f.hashesPerTree))
	b.U64(uint64(f.count))
	b.Bool(f.indexed)
	var keys []byte // one tree's expanded keys, reused
	for t := range f.trees {
		if !f.indexed {
			b.Bytes(f.trees[t].staged.keys)
			b.I32s(f.trees[t].staged.ids)
			continue
		}
		r := f.merged(&f.trees[t])
		keys = r.expand(keys[:0], f.hashesPerTree)
		b.Bytes(keys)
		b.I32s(r.ids)
	}
}

// Indexed reports whether Index has run, so the forest answers probes.
func (f *Forest) Indexed() bool { return f.indexed }

// NumTrees reports the forest's tree count.
func (f *Forest) NumTrees() int { return f.numTrees }

// HashesPerTree reports how many hash values each tree consumes.
func (f *Forest) HashesPerTree() int { return f.hashesPerTree }

// CheckIDs verifies that every indexed item id lies in [0, limit) —
// decoded forests are checked against the profile count so a corrupt
// snapshot can never make a query index out of bounds.
func (f *Forest) CheckIDs(limit int32) error {
	for t := range f.trees {
		tree := &f.trees[t]
		for _, ids := range [][]int32{tree.staged.ids, tree.base.ids, tree.delta.ids} {
			for _, id := range ids {
				if id < 0 || id >= limit {
					return fmt.Errorf("forest item id %d outside [0,%d)", id, limit)
				}
			}
		}
	}
	return nil
}

// DecodeForest reconstructs a forest written by Encode, validating the
// layout and the per-tree array lengths against the recorded item
// count so a decoded forest can never index out of bounds, and the key
// order of an indexed forest's trees, which every binary search and
// every fold assumes: a checksum-valid snapshot with an unsorted tree
// would otherwise answer wrongly without a word. An indexed tree's keys
// are read twice off the read window: once to count the distinct keys
// and check their order, once to pack them into arrays of exact size.
// So the one-array keys are never held, and loading allocates what the
// forest keeps. An un-indexed forest's trees load as staged entries.
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
	h := hashesPerTree
	last := make([]byte, 0, h) // the key before the current window's
	for t := 0; t < numTrees; t++ {
		var n int
		var tree forestTree
		if indexed {
			distinct, sorted := 0, true
			last = last[:0]
			n = r.Records(h, func(p []byte) {
				d, ok := countKeys(last, p, h)
				distinct, sorted = distinct+d, sorted && ok
				last = append(last[:0], p[len(p)-h:]...)
			})
			if r.Err() == nil && n == count*h {
				if !sorted {
					return nil, fmt.Errorf("%w: forest tree %d is not sorted", persist.ErrCorrupt, t)
				}
				r.Rewind(4 + n) // the length prefix and the keys
				b, entries := &tree.base, 0
				b.keys, b.off = make([]byte, 0, distinct*h), make([]int32, 0, distinct+1)
				r.Records(h, func(p []byte) {
					b.keys, b.off = packKeys(b.keys, b.off, p, entries, h)
					entries += len(p) / h
				})
			}
		} else {
			tree.staged.keys = r.Bytes()
			n = len(tree.staged.keys)
		}
		ids := r.I32s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(ids) != count || n != count*h {
			return nil, fmt.Errorf("%w: forest tree %d has %d keys / %d ids for count %d",
				persist.ErrCorrupt, t, n, len(ids), count)
		}
		if indexed {
			tree.base.ids, tree.base.off = ids, append(tree.base.off, int32(count))
		} else {
			tree.staged.ids = ids
		}
		f.trees[t] = tree
	}
	return f, nil
}
