package lsh

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Forest is an LSH Forest (Bawa, Condie, Ganesan; WWW 2005): a set of l
// prefix trees over per-tree slices of a hash-value signature. Unlike
// banded LSH, the forest self-tunes the match length at query time, so
// the search time for an answer of size k varies little with repository
// size (the property D3L relies on; see Section II of the paper).
//
// The implementation follows the sorted-key variant: each tree keeps its
// keys (one byte per hash value, hashesPerTree bytes per key) in a flat
// sorted array, and prefix descent is binary search on progressively
// shorter prefixes. This is the same layout the reference datasketch
// implementation uses and costs O(l) words per indexed item.
//
// Build with Add (any order), call Index once, then Query concurrently.
type Forest struct {
	numTrees      int
	hashesPerTree int
	trees         []forestTree
	count         int
	indexed       bool
	// scratch recycles the probe scratch of QueryInto callers.
	scratch sync.Pool
}

type forestTree struct {
	keys []byte  // count * hashesPerTree bytes, sorted by entry after Index
	ids  []int32 // parallel to keys (entry i covers keys[i*h:(i+1)*h])
}

// NewForest creates a forest of numTrees prefix trees each consuming
// hashesPerTree values from the signature; signatures passed to Add and
// Query must carry at least numTrees*hashesPerTree values.
func NewForest(numTrees, hashesPerTree int) (*Forest, error) {
	if numTrees <= 0 || hashesPerTree <= 0 {
		return nil, fmt.Errorf("lsh: numTrees (%d) and hashesPerTree (%d) must be positive", numTrees, hashesPerTree)
	}
	f := &Forest{numTrees: numTrees, hashesPerTree: hashesPerTree, trees: make([]forestTree, numTrees)}
	return f, nil
}

// MustForest is NewForest panicking on bad arguments.
func MustForest(numTrees, hashesPerTree int) *Forest {
	f, err := NewForest(numTrees, hashesPerTree)
	if err != nil {
		panic(err)
	}
	return f
}

// MinSignatureLen reports the number of hash values a signature must
// provide.
func (f *Forest) MinSignatureLen() int { return f.numTrees * f.hashesPerTree }

// Len reports the number of indexed items.
func (f *Forest) Len() int { return f.count }

// ready is the precondition every probe (and Delete) shares: the forest
// has been indexed and the signature covers all its trees. op names the
// caller in the error.
func (f *Forest) ready(op string, sig []uint32) error {
	if !f.indexed {
		return fmt.Errorf("lsh: %s before Index", op)
	}
	if len(sig) < f.MinSignatureLen() {
		return fmt.Errorf("lsh: signature has %d values, forest needs %d", len(sig), f.MinSignatureLen())
	}
	return nil
}

// keyStackBytes is the key-scratch size every probe and mutation keeps
// on its stack. Key extraction used to make() a fresh slice per tree
// per operation — O(trees) garbage per item on index builds and O(trees
// × depths) per query — so the whole package now extracts keys into a
// caller-owned buffer instead. Layouts wider than this (none of the
// shipped configurations come close; the default is 32) fall back to a
// single heap allocation per call.
const keyStackBytes = 64

// keyScratch sizes a key buffer for this forest's layout: the caller's
// stack array when it fits, one heap slice otherwise.
func (f *Forest) keyScratch(buf []byte) []byte {
	if f.hashesPerTree <= len(buf) {
		return buf[:f.hashesPerTree]
	}
	return make([]byte, f.hashesPerTree)
}

// keyInto extracts the byte key of tree t from a signature into key,
// which must be hashesPerTree bytes (see keyScratch).
func (f *Forest) keyInto(key []byte, t int, sig []uint32) {
	base := t * f.hashesPerTree
	for i := range key {
		key[i] = byte(sig[base+i]) // low byte: uniform for MinHash values
	}
}

// Add inserts an item. It must not be called after Index.
func (f *Forest) Add(id int32, sig []uint32) error {
	if f.indexed {
		return fmt.Errorf("lsh: Add after Index")
	}
	if len(sig) < f.MinSignatureLen() {
		return fmt.Errorf("lsh: signature has %d values, forest needs %d", len(sig), f.MinSignatureLen())
	}
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t]
		f.keyInto(key, t, sig)
		tree.keys = append(tree.keys, key...)
		tree.ids = append(tree.ids, id)
	}
	f.count++
	return nil
}

// Insert adds an item to the forest at any point of its lifecycle.
// Before Index it is equivalent to Add; after Index it splices the
// entry into each tree's sorted array, so the forest stays queryable —
// this is what makes incremental engine maintenance possible. An
// insert is O(n) per tree (memmove), which is fine for the
// one-table-at-a-time mutation rate of a data lake.
func (f *Forest) Insert(id int32, sig []uint32) error {
	if !f.indexed {
		return f.Add(id, sig)
	}
	if len(sig) < f.MinSignatureLen() {
		return fmt.Errorf("lsh: signature has %d values, forest needs %d", len(sig), f.MinSignatureLen())
	}
	h := f.hashesPerTree
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t]
		f.keyInto(key, t, sig)
		n := len(tree.ids)
		pos := sort.Search(n, func(i int) bool {
			return bytes.Compare(tree.keys[i*h:i*h+h], key) >= 0
		})
		// Appending the key itself (rather than a fresh zero slice)
		// extends the array by exactly h bytes without a temporary;
		// the memmove below then shifts the tail into place, and for
		// pos == n the appended bytes already are the entry.
		tree.keys = append(tree.keys, key...)
		copy(tree.keys[(pos+1)*h:], tree.keys[pos*h:n*h])
		copy(tree.keys[pos*h:], key)
		tree.ids = append(tree.ids, 0)
		copy(tree.ids[pos+1:], tree.ids[pos:n])
		tree.ids[pos] = id
	}
	f.count++
	return nil
}

// Delete removes the entry with the given id from an indexed forest,
// locating it by its signature (the same one it was inserted with).
// It reports whether the item was found. Deleting from an un-indexed
// forest is an error: the build phase has no removal semantics.
func (f *Forest) Delete(id int32, sig []uint32) (bool, error) {
	if err := f.ready("Delete", sig); err != nil {
		return false, err
	}
	h := f.hashesPerTree
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	found := false
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t]
		f.keyInto(key, t, sig)
		lo, hi := f.prefixRange(tree, key, h)
		for i := lo; i < hi; i++ {
			if tree.ids[i] != id {
				continue
			}
			n := len(tree.ids)
			copy(tree.keys[i*h:], tree.keys[(i+1)*h:n*h])
			tree.keys = tree.keys[:(n-1)*h]
			copy(tree.ids[i:], tree.ids[i+1:])
			tree.ids = tree.ids[:n-1]
			found = true
			break
		}
	}
	if found {
		f.count--
	}
	return found, nil
}

// Index sorts the trees; it must be called once after the last Add and
// before the first Query. Calling it again is a no-op.
func (f *Forest) Index() {
	if f.indexed {
		return
	}
	h := f.hashesPerTree
	for t := range f.trees {
		tree := &f.trees[t]
		order := make([]int, len(tree.ids))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ka := tree.keys[order[a]*h : order[a]*h+h]
			kb := tree.keys[order[b]*h : order[b]*h+h]
			return bytes.Compare(ka, kb) < 0
		})
		keys := make([]byte, len(tree.keys))
		ids := make([]int32, len(tree.ids))
		for pos, idx := range order {
			copy(keys[pos*h:], tree.keys[idx*h:idx*h+h])
			ids[pos] = tree.ids[idx]
		}
		tree.keys, tree.ids = keys, ids
	}
	f.indexed = true
}

// prefixRange returns the half-open entry range of tree whose keys match
// the first depth bytes of key.
func (f *Forest) prefixRange(tree *forestTree, key []byte, depth int) (int, int) {
	h := f.hashesPerTree
	n := len(tree.ids)
	lo := sort.Search(n, func(i int) bool {
		return bytes.Compare(tree.keys[i*h:i*h+depth], key[:depth]) >= 0
	})
	hi := sort.Search(n, func(i int) bool {
		return bytes.Compare(tree.keys[i*h:i*h+depth], key[:depth]) > 0
	})
	return lo, hi
}

// Query returns candidate item ids similar to the query signature,
// descending from the longest prefix until at least minResults distinct
// candidates are gathered (or the prefix length reaches zero, which
// bounds the scan to the whole forest). Candidates are deduplicated and
// unranked: rank with exact signature comparison, as the engine does.
func (f *Forest) Query(sig []uint32, minResults int) ([]int32, error) {
	if err := f.ready("Query", sig); err != nil {
		return nil, err
	}
	if minResults <= 0 {
		minResults = 1
	}
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	seen := make(map[int32]struct{})
	var out []int32
	for depth := f.hashesPerTree; depth >= 1; depth-- {
		for t := 0; t < f.numTrees; t++ {
			tree := &f.trees[t]
			f.keyInto(key, t, sig)
			lo, hi := f.prefixRange(tree, key, depth)
			for i := lo; i < hi; i++ {
				id := tree.ids[i]
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					out = append(out, id)
				}
			}
		}
		if len(out) >= minResults {
			break
		}
	}
	return out, nil
}

// QueryInto is the allocation-free form of Query for hot paths: it
// appends the candidate set to dst (which may be nil or a recycled
// buffer) and returns the extended slice, performing zero heap
// allocations once dst has grown to its steady-state capacity. It is
// Probe on a forest-owned scratch, for callers with no scratch of their
// own to thread through: the same set Query produces for the same
// arguments, distinct, in Probe's discovery order. Ids must be
// non-negative.
func (f *Forest) QueryInto(sig []uint32, minResults int, dst []int32) ([]int32, error) {
	s, _ := f.scratch.Get().(*DepthScratch)
	if s == nil {
		s = new(DepthScratch)
	}
	dst, _, err := f.Probe(sig, minResults, dst, s)
	f.scratch.Put(s)
	return dst, err
}

// CollectMinDepth appends to dst, raw, every tree's entries sharing at
// least depth leading hash values with the query: the fixed-threshold
// lookup of a shard gathering at the depth its coordinator imposed. An
// id appears once per tree that matches it and in no order — the one
// caller unions the regions of four forests under a stamp array and
// sorts that union, so deduplicating or ordering one region here would
// be work done twice. depth is clamped to [1, hashesPerTree]. Zero
// allocations once dst has grown.
func (f *Forest) CollectMinDepth(sig []uint32, depth int, dst []int32) ([]int32, error) {
	if err := f.ready("CollectMinDepth", sig); err != nil {
		return dst, err
	}
	depth = min(max(depth, 1), f.hashesPerTree)
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	for t := 0; t < f.numTrees; t++ {
		f.keyInto(key, t, sig)
		tree := &f.trees[t]
		lo, hi := f.prefixRange(tree, key, depth)
		dst = append(dst, tree.ids[lo:hi]...)
	}
	return dst, nil
}

// DepthScratch is the caller-owned working memory of the one-walk probe
// (Probe and DepthCounts): an epoch-stamped per-id array (the same trick
// as core's visited stamps, so starting a probe is one integer
// increment, not an O(ids) clear), the list of ids the current probe
// touched, and the probe's per-depth counts. The zero value is ready;
// one scratch serves any number of forests and probes, one probe at a
// time.
type DepthScratch struct {
	// deepest[id] packs epoch<<32 | depth: the deepest prefix id has
	// matched in the current probe. A stale stamp carries a smaller
	// epoch, so it compares below every live value and a single
	// "raise to max" both claims the slot and keeps the maximum.
	deepest []uint64
	epoch   uint32
	touched []int32
	counts  []int32
}

// begin starts a probe: a fresh epoch and an empty touched list.
func (s *DepthScratch) begin() {
	s.epoch++
	if s.epoch == 0 { // wraparound: stale stamps could alias
		clear(s.deepest)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// raise records that every id of one peeled run matched a prefix of
// exactly the given depth in some tree.
func (s *DepthScratch) raise(ids []int32, depth int) error {
	v := uint64(s.epoch)<<32 | uint64(depth)
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("lsh: probe over negative id %d", id)
		}
		if int(id) >= len(s.deepest) {
			s.deepest = append(s.deepest, make([]uint64, int(id)+1-len(s.deepest))...)
		}
		if old := s.deepest[id]; old < v {
			if uint32(old>>32) != s.epoch {
				s.touched = append(s.touched, id)
			}
			s.deepest[id] = v
		}
	}
	return nil
}

// depthOf is the deepest prefix match a touched id reached in the
// current probe.
func (s *DepthScratch) depthOf(id int32) int { return int(uint32(s.deepest[id])) }

// walk is the one descent every self-tuning probe shares. An id is a
// depth-d candidate iff some tree holds it under a key agreeing with
// the query on at least d leading bytes, i.e. iff its deepest match over
// all trees is >= d. So each tree's depth-1 range is visited once:
// narrowing it byte by byte (the entries agreeing on d-1 bytes are
// sorted by byte d) peels off the entries whose match is exactly d-1
// deep, and every entry raises its id's deepest match. It leaves in s
// the touched ids (tree by tree, in peel order) with their deepest
// matches, and writes into counts (hashesPerTree long) the suffix sum of
// the histogram of deepest matches: counts[d-1] = |{id : deepest(id) >=
// d}|, the distinct candidate count at depth d — no per-depth collect,
// sort and compact.
func (f *Forest) walk(sig []uint32, s *DepthScratch, counts []int32) error {
	h := f.hashesPerTree
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	s.begin()
	for t := 0; t < f.numTrees; t++ {
		tree := &f.trees[t]
		f.keyInto(key, t, sig)
		lo, hi := f.prefixRange(tree, key, 1)
		// Invariant: entries [lo, hi) agree with key on depth bytes.
		for depth := 1; lo < hi; depth++ {
			nlo, nhi := hi, hi // at depth h every entry left is a full match: peel them all
			if depth < h {
				want := key[depth]
				nlo = lo + sort.Search(hi-lo, func(i int) bool { return tree.keys[(lo+i)*h+depth] >= want })
				nhi = nlo + sort.Search(hi-nlo, func(i int) bool { return tree.keys[(nlo+i)*h+depth] > want })
			}
			if err := s.raise(tree.ids[lo:nlo], depth); err != nil {
				return err
			}
			if err := s.raise(tree.ids[nhi:hi], depth); err != nil {
				return err
			}
			lo, hi = nlo, nhi
		}
	}
	clear(counts)
	for _, id := range s.touched {
		counts[s.depthOf(id)-1]++
	}
	for d := h - 1; d >= 1; d-- {
		counts[d-1] += counts[d]
	}
	return nil
}

// StopDepth is the forest's self-tuning stop rule over per-depth
// distinct candidate counts (counts[d-1] is the size at depth d,
// non-increasing in d): the largest depth whose candidate set meets the
// budget, or 1 when none does — the longest prefix that still yields
// enough candidates. A budget below 1 asks for 1. Probe applies it to
// one forest's counts; a shard coordinator applies it to the counts
// summed over its shards (core.MergeProbeDepths), which is what makes
// the monolith the one-shard case.
func StopDepth[C int32 | int64](counts []C, budget int) int {
	if budget < 1 {
		budget = 1
	}
	for d := len(counts); d > 1; d-- {
		if int64(counts[d-1]) >= int64(budget) {
			return d
		}
	}
	return 1
}

// Probe is the self-tuning lookup on caller-owned scratch: it appends to
// dst the distinct ids matching the query at the stop depth StopDepth
// picks for minResults, and returns the extended slice and that depth.
// One walk finds every touched id's deepest match and the per-depth
// counts; the stop rule reads the counts; the answer is the touched ids
// whose deepest match reaches the stop depth d*. That is exactly the
// set a top-down descent collects at d* (the union of the per-tree
// prefix ranges at d*): by prefix nesting an id lies in some tree's
// depth-d* range iff its deepest match is >= d*. Ids come out in
// discovery order (tree by tree, shallowest peel first), not sorted;
// callers that need an order sort, as the engine does after its
// cross-forest dedup. Zero allocations once s and dst have grown.
func (f *Forest) Probe(sig []uint32, minResults int, dst []int32, s *DepthScratch) ([]int32, int, error) {
	if err := f.ready("Query", sig); err != nil {
		return dst, 0, err
	}
	s.counts = slices.Grow(s.counts[:0], f.hashesPerTree)[:f.hashesPerTree]
	if err := f.walk(sig, s, s.counts); err != nil {
		return dst, 0, err
	}
	depth := StopDepth(s.counts, minResults)
	for _, id := range s.touched {
		if s.depthOf(id) >= depth {
			dst = append(dst, id)
		}
	}
	return dst, depth, nil
}

// DepthCounts reports, for every prefix depth d = 1..hashesPerTree, how
// many distinct indexed ids share a length-d key prefix with the query
// signature in at least one tree — the per-depth candidate-set sizes
// Probe's stop rule decides on, from the same walk. Counts[d-1] is the
// size at depth d; the vector is non-increasing in d (prefix nesting).
// Ids must be non-negative (they index the scratch).
//
// This is the scatter half of the sharded probe protocol: per-depth
// distinct counts are additive across engines indexing disjoint id sets,
// so a coordinator that sums the vectors of every shard recovers the
// exact counts of the equivalent monolithic forest and can impose the
// depth the monolith's probe would have stopped at (see
// core.MergeProbeDepths). The returned vector is the only allocation
// once the scratch has grown to the forest's id range.
func (f *Forest) DepthCounts(sig []uint32, s *DepthScratch) ([]int32, error) {
	if err := f.ready("DepthCounts", sig); err != nil {
		return nil, err
	}
	counts := make([]int32, f.hashesPerTree)
	if err := f.walk(sig, s, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// SpaceBytes estimates the memory footprint of the index payload (keys
// and id arrays), used by the Table II space-overhead experiment.
func (f *Forest) SpaceBytes() int64 {
	var total int64
	for t := range f.trees {
		total += int64(len(f.trees[t].keys)) + 4*int64(len(f.trees[t].ids))
	}
	return total
}
