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
// keys (one byte per hash value, hashesPerTree bytes per key) in flat
// sorted arrays, and prefix descent is binary search on progressively
// shorter prefixes, as in the reference datasketch implementation. A
// tree stores each distinct key once, with the ids of its entries as
// one contiguous run (see run), so a tree costs hashesPerTree bytes and
// an offset per distinct key plus one id per indexed item: lakes repeat
// their column names and formats, and most of a name or format tree's
// entries share a key with another.
//
// Once indexed, a tree is two sorted runs, the LSM-tree split (O'Neil et
// al., Acta Informatica 1996): an immutable base — what Index or Build
// sorted, or the last fold merged — and a small delta that takes
// every later Insert. Delete takes an entry out of the delta, or marks a
// base entry's id in the forest's dead set. When the delta and the dead
// set together outgrow max(foldMin, base/8) entries, fold merges them
// into a new base in one linear pass per tree. A write therefore shifts
// only the delta, and every probe sees exactly the entries that one
// sorted array per tree would hold.
//
// Fill with Add (any order) and call Index once, or fill at once with
// Build, then Query concurrently.
type Forest struct {
	numTrees      int
	hashesPerTree int
	trees         []forestTree
	count         int // live items
	indexed       bool
	// dead holds the ids whose base entries Delete has retired. It never
	// applies to the delta: Delete takes a delta entry out, and an id
	// re-inserted after its base entries died is live in the delta.
	dead idSet
	// scratch recycles the probe scratch of QueryInto callers.
	scratch sync.Pool
}

// run is one sorted array of tree entries stored over its distinct
// keys: key i, keys[i*h:(i+1)*h], owns ids[off[i]:off[i+1]], the ids of
// its entries in the order the one array held them. So ids is exactly
// that array's id column, and any key range [lo, hi) owns the one id
// slice span(lo, hi). Keys strictly increase and every key owns at
// least one id; off is one longer than the key count, or empty in a run
// that never held a key.
type run struct {
	keys []byte
	ids  []int32
	off  []int32
}

// numKeys is the run's distinct key count.
func (r *run) numKeys() int { return max(len(r.off)-1, 0) }

// key is the i-th distinct key of a run of h-byte keys.
func (r *run) key(i, h int) []byte { return r.keys[i*h : i*h+h] }

// span is the ids the keys [lo, hi) own.
func (r *run) span(lo, hi int) []int32 {
	if lo >= hi {
		return nil
	}
	return r.ids[r.off[lo]:r.off[hi]]
}

// seal closes the ids appended since the last seal under key: they join
// the last key's run when key equals it and start a new key otherwise,
// and no ids add no key. Keys must be sealed in non-decreasing order.
func (r *run) seal(key []byte) {
	if len(r.off) == 0 {
		r.off = append(r.off, 0)
	}
	end := int32(len(r.ids))
	switch n := len(r.keys); {
	case end == r.off[len(r.off)-1]:
	case n > 0 && bytes.Equal(r.keys[n-len(key):], key):
		r.off[len(r.off)-1] = end
	default:
		r.keys = append(r.keys, key...)
		r.off = append(r.off, end)
	}
}

// sortPack sorts ids, one tree's entries in the order they were added,
// in place by key — compare orders two entries' keys, key appends one —
// and packs them into a run over ids: each distinct key once, with its
// offset, both arrays allocated at their exact size after a counting
// pass. The sort is the pdqsort sort.Slice runs, so entries under equal
// keys land in the order a sort of the one array by key leaves them.
func sortPack(ids []int32, h int, compare func(a, b int32) int, key func(dst []byte, id int32) []byte) run {
	slices.SortFunc(ids, compare)
	distinct := 0
	for i := range ids {
		if i == 0 || compare(ids[i-1], ids[i]) != 0 {
			distinct++
		}
	}
	r := run{keys: make([]byte, 0, distinct*h), ids: ids, off: make([]int32, 0, distinct+1)}
	for i := range ids {
		if i == 0 || compare(ids[i-1], ids[i]) != 0 {
			r.keys = key(r.keys, ids[i])
			r.off = append(r.off, int32(i))
		}
	}
	r.off = append(r.off, int32(len(ids)))
	return r
}

// flat is a tree as one array, an h-byte key per id: the entries Add
// stages until Index sorts and packs them.
type flat struct {
	keys []byte
	ids  []int32
}

type forestTree struct {
	staged flat // Add appends here until Index
	base   run  // sorted from Index on
	delta  run  // sorted; the Inserts since the last fold
}

// foldMin is the fold threshold of a small forest: up to this many delta
// entries and dead ids together, a write is cheaper than a new base.
const foldMin = 64

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
		s := &f.trees[t].staged
		f.keyInto(key, t, sig)
		s.keys = append(s.keys, key...)
		s.ids = append(s.ids, id)
	}
	f.count++
	return nil
}

// Insert adds an item to the forest at any point of its lifecycle.
// Before Index it is equivalent to Add; after Index it puts the id into
// each tree's delta at the head of its key's run, so the forest stays
// queryable — this is what makes incremental engine maintenance
// possible. An id whose base entries are dead enters the delta like any
// other: its dead base entries stay dead until the fold drops them.
func (f *Forest) Insert(id int32, sig []uint32) error {
	if !f.indexed {
		return f.Add(id, sig)
	}
	if len(sig) < f.MinSignatureLen() {
		return fmt.Errorf("lsh: signature has %d values, forest needs %d", len(sig), f.MinSignatureLen())
	}
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	for t := 0; t < f.numTrees; t++ {
		f.keyInto(key, t, sig)
		f.trees[t].delta.insert(key, id)
	}
	f.count++
	f.maybeFold()
	return nil
}

// insert puts id at the head of key's run, splicing key in first when
// the run does not hold it: where splicing the entry into the one array
// ahead of its equal keys puts it.
func (r *run) insert(key []byte, id int32) {
	h, n := len(key), r.numKeys()
	i := sort.Search(n, func(i int) bool { return bytes.Compare(r.key(i, h), key) >= 0 })
	if len(r.off) == 0 {
		r.off = append(r.off, 0)
	}
	pos := r.off[i]
	if i == n || !bytes.Equal(r.key(i, h), key) {
		r.keys = slices.Insert(r.keys, i*h, key...)
		r.off = slices.Insert(r.off, i, pos)
	}
	r.ids = slices.Insert(r.ids, int(pos), id)
	for j := i + 1; j < len(r.off); j++ {
		r.off[j]++
	}
}

// remove takes id out of the run of key i, and the key with it once its
// run is empty. It reports whether the run held id.
func (r *run) remove(i int, id int32, h int) bool {
	lo := r.off[i]
	k := slices.Index(r.ids[lo:r.off[i+1]], id)
	if k < 0 {
		return false
	}
	r.ids = slices.Delete(r.ids, int(lo)+k, int(lo)+k+1)
	for j := i + 1; j < len(r.off); j++ {
		r.off[j]--
	}
	if r.off[i] == r.off[i+1] {
		r.keys = slices.Delete(r.keys, i*h, i*h+h)
		r.off = slices.Delete(r.off, i+1, i+2)
	}
	return true
}

// Delete removes the entry with the given id from an indexed forest,
// locating it by its signature (the same one it was inserted with).
// It reports whether the item was found. Deleting from an un-indexed
// forest is an error: the build phase has no removal semantics, and
// neither does a negative id. A delta entry leaves its key's run, and
// the key leaves the delta with its last id; a base entry stays where
// it is, its id marked dead, once one lookup has confirmed that the
// base holds it.
func (f *Forest) Delete(id int32, sig []uint32) (bool, error) {
	if err := f.ready("Delete", sig); err != nil {
		return false, err
	}
	if id < 0 {
		return false, fmt.Errorf("lsh: Delete of negative id %d", id)
	}
	h := f.hashesPerTree
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	found := false
	for t := 0; t < f.numTrees; t++ {
		d := &f.trees[t].delta
		f.keyInto(key, t, sig)
		// A full-length prefix range holds at most the one key.
		if lo, hi := f.prefixRange(d, key, h); lo < hi && d.remove(lo, id, h) {
			found = true
		}
	}
	if !found && !f.dead.has(id) {
		b := &f.trees[0].base
		f.keyInto(key, 0, sig)
		lo, hi := f.prefixRange(b, key, h)
		if found = slices.Contains(b.span(lo, hi), id); found {
			f.dead.add(id)
		}
	}
	if found {
		f.count--
		f.maybeFold()
	}
	return found, nil
}

// maybeFold folds once the delta and the dead set together pass
// max(foldMin, base/8) entries: the delta stays a small fraction of a
// tree, and the base's dead weight is paid back at an amortised rate.
func (f *Forest) maybeFold() {
	tree := &f.trees[0]
	if len(tree.delta.ids)+f.dead.n > max(foldMin, len(tree.base.ids)/8) {
		f.fold()
	}
}

// fold makes every tree's merged form its new base, with an empty delta
// and no dead ids.
func (f *Forest) fold() {
	for t := range f.trees {
		f.trees[t] = forestTree{base: f.merged(&f.trees[t])}
	}
	f.dead.reset()
}

// merged returns tree's live entries as one sorted run: the base less its
// dead ids, with each delta key's run merged in ahead of its equal base
// key's. That is the array splicing every Insert into one sorted run per
// tree, at the head of its run of equal keys, would have left. A tree
// with no delta and no dead ids is its base, returned as it is. It only
// reads f.
func (f *Forest) merged(tree *forestTree) run {
	h := f.hashesPerTree
	b, d := &tree.base, &tree.delta
	if d.numKeys() == 0 && f.dead.n == 0 {
		return *b
	}
	out := run{
		keys: make([]byte, 0, len(b.keys)+len(d.keys)),
		ids:  make([]int32, 0, f.count),
		off:  make([]int32, 0, b.numKeys()+d.numKeys()+1),
	}
	i := 0
	for j := range d.numKeys() {
		dk := d.key(j, h)
		next := i + sort.Search(b.numKeys()-i, func(k int) bool { return bytes.Compare(b.key(i+k, h), dk) >= 0 })
		f.appendLive(&out, b, i, next)
		out.ids = append(out.ids, d.span(j, j+1)...)
		out.seal(dk)
		i = next
	}
	f.appendLive(&out, b, i, b.numKeys())
	return out
}

// appendLive appends to dst the base keys [lo, hi) with their ids that
// are not dead; a key none of whose ids lives is left out.
func (f *Forest) appendLive(dst, b *run, lo, hi int) {
	for k := lo; k < hi; k++ {
		for _, id := range b.span(k, k+1) {
			if !f.dead.has(id) {
				dst.ids = append(dst.ids, id)
			}
		}
		dst.seal(b.key(k, f.hashesPerTree))
	}
}

// Index sorts the trees; it must be called once after the last Add and
// before the first Query. Calling it again is a no-op. Each tree's
// staged entries are sorted by their positions (sortPack), which then
// give way to the ids at them.
func (f *Forest) Index() {
	if f.indexed {
		return
	}
	h := f.hashesPerTree
	for t := range f.trees {
		s := f.trees[t].staged
		key := func(p int32) []byte { return s.keys[int(p)*h : int(p)*h+h] }
		pos := make([]int32, len(s.ids))
		for i := range pos {
			pos[i] = int32(i)
		}
		r := sortPack(pos, h,
			func(a, b int32) int { return bytes.Compare(key(a), key(b)) },
			func(dst []byte, p int32) []byte { return append(dst, key(p)...) })
		for i, p := range r.ids {
			r.ids[i] = s.ids[p]
		}
		f.trees[t] = forestTree{base: r}
	}
	f.indexed = true
}

// Keys is where Build reads the keys of the items it indexes, in place
// of the signatures Add copies them out of: Len is how many hash values
// item id's signature provides, Compare orders two items' keys over the
// hash values [lo, hi) as bytes.Compare orders the keys Add stages, and
// AppendKey appends one item's. SigKeys and BitKeys read the two kinds
// of signature a forest indexes.
type Keys interface {
	Len(id int32) int
	Compare(a, b int32, lo, hi int) int
	AppendKey(dst []byte, id int32, lo, hi int) []byte
}

// SigKeys reads the keys of hash-value signatures such as MinHash's:
// item id's signature is SigKeys(id), keyed by each value's low byte, as
// Add keys it.
type SigKeys func(id int32) []uint32

func (s SigKeys) Len(id int32) int { return len(s(id)) }

func (s SigKeys) Compare(a, b int32, lo, hi int) int {
	x, y := s(a)[lo:hi], s(b)[lo:hi]
	if &x[0] == &y[0] {
		return 0 // one signature: callers share the copies of equal ones
	}
	y = y[:len(x)]
	for i := range x {
		if xb, yb := byte(x[i]), byte(y[i]); xb != yb {
			return int(xb) - int(yb)
		}
	}
	return 0
}

func (s SigKeys) AppendKey(dst []byte, id int32, lo, hi int) []byte {
	for _, v := range s(id)[lo:hi] {
		dst = append(dst, byte(v))
	}
	return dst
}

// BitKeys reads the keys of bit signatures such as SimHash's: item id's
// signature is BitKeys(id), keyed by its byte-wide hash values
// (HashValues) without expanding them.
type BitKeys func(id int32) BitSignature

func (s BitKeys) Len(id int32) int { return 8 * len(s(id)) }

func (s BitKeys) Compare(a, b int32, lo, hi int) int {
	x, y := s(a), s(b)
	for k := lo; k < hi; k++ {
		if xb, yb := x.value(k), y.value(k); xb != yb {
			return int(xb) - int(yb)
		}
	}
	return 0
}

func (s BitKeys) AppendKey(dst []byte, id int32, lo, hi int) []byte {
	x := s(id)
	for k := lo; k < hi; k++ {
		dst = append(dst, x.value(k))
	}
	return dst
}

// Build indexes, at once, the items ids lists in the order Add would take
// them, reading every key straight from keys: the forest Add of each
// id's signature in that order followed by Index leaves, entry for
// entry, with no key staged. The last tree keeps ids itself as its id
// column and every other tree a copy, so a caller that sized ids exactly
// allocates nothing Build does not keep. Build fills an empty forest
// once, in place of Add and Index.
func (f *Forest) Build(ids []int32, keys Keys) error {
	if f.indexed || f.count > 0 {
		return fmt.Errorf("lsh: Build of a forest already filled")
	}
	for _, id := range ids {
		if n := keys.Len(id); n < f.MinSignatureLen() {
			return fmt.Errorf("lsh: signature of item %d has %d values, forest needs %d", id, n, f.MinSignatureLen())
		}
	}
	h := f.hashesPerTree
	for t := range f.trees {
		tids, lo := ids, t*h
		if t < f.numTrees-1 {
			tids = slices.Clone(ids)
		}
		f.trees[t] = forestTree{base: sortPack(tids, h,
			func(a, b int32) int { return keys.Compare(a, b, lo, lo+h) },
			func(dst []byte, id int32) []byte { return keys.AppendKey(dst, id, lo, lo+h) })}
	}
	f.count, f.indexed = len(ids), true
	return nil
}

// prefixRange returns the half-open range of r's keys that match the
// first depth bytes of key; span maps it to their ids.
func (f *Forest) prefixRange(r *run, key []byte, depth int) (int, int) {
	h := f.hashesPerTree
	n := r.numKeys()
	lo := sort.Search(n, func(i int) bool {
		return bytes.Compare(r.keys[i*h:i*h+depth], key[:depth]) >= 0
	})
	hi := sort.Search(n, func(i int) bool {
		return bytes.Compare(r.keys[i*h:i*h+depth], key[:depth]) > 0
	})
	return lo, hi
}

// Query returns candidate item ids similar to the query signature,
// descending from the longest prefix until at least minResults distinct
// candidates are gathered (or the prefix length reaches zero, which
// bounds the scan to the whole forest). Candidates are deduplicated and
// unranked: rank with exact signature comparison, as the engine does.
// Each tree's base and delta ranges are merged in key order, delta
// first among equal keys, so the ids come out in first-seen order over
// the one sorted array per tree that merged describes.
func (f *Forest) Query(sig []uint32, minResults int) ([]int32, error) {
	if err := f.ready("Query", sig); err != nil {
		return nil, err
	}
	if minResults <= 0 {
		minResults = 1
	}
	h := f.hashesPerTree
	var kb [keyStackBytes]byte
	key := f.keyScratch(kb[:])
	seen := make(map[int32]struct{})
	var out []int32
	for depth := h; depth >= 1; depth-- {
		for t := 0; t < f.numTrees; t++ {
			b, d := &f.trees[t].base, &f.trees[t].delta
			f.keyInto(key, t, sig)
			lo, hi := f.prefixRange(b, key, depth)
			dlo, dhi := f.prefixRange(d, key, depth)
			for lo < hi || dlo < dhi {
				var ids []int32
				fromBase := dlo == dhi || (lo < hi && bytes.Compare(d.key(dlo, h), b.key(lo, h)) > 0)
				if fromBase {
					ids = b.span(lo, lo+1)
					lo++
				} else {
					ids = d.span(dlo, dlo+1)
					dlo++
				}
				for _, id := range ids {
					if fromBase && f.dead.has(id) {
						continue
					}
					if _, dup := seen[id]; !dup {
						seen[id] = struct{}{}
						out = append(out, id)
					}
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
		lo, hi := f.prefixRange(&tree.base, key, depth)
		for _, id := range tree.base.span(lo, hi) {
			if !f.dead.has(id) {
				dst = append(dst, id)
			}
		}
		lo, hi = f.prefixRange(&tree.delta, key, depth)
		dst = append(dst, tree.delta.span(lo, hi)...)
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

// raise records that every id of one peeled run that dead does not hold
// matched a prefix of exactly the given depth in some tree.
func (s *DepthScratch) raise(ids []int32, depth int, dead *idSet) error {
	v := uint64(s.epoch)<<32 | uint64(depth)
	for _, id := range ids {
		if dead.has(id) {
			continue
		}
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
// all trees is >= d. So each run's depth-1 range is visited once (see
// peel) and every live entry raises its id's deepest match; a dead base
// entry is skipped before it counts. It leaves in s the touched ids
// (tree by tree, base before delta, in peel order) with their deepest
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
		if err := f.peel(&tree.base, key, s, &f.dead); err != nil {
			return err
		}
		if err := f.peel(&tree.delta, key, s, nil); err != nil {
			return err
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

// peel visits r's depth-1 range once: narrowing it byte by byte (the
// keys agreeing on d-1 bytes are sorted by byte d) peels off the keys
// whose match is exactly d-1 deep, and every id of their runs that dead
// does not hold raises that id's deepest match.
func (f *Forest) peel(r *run, key []byte, s *DepthScratch, dead *idSet) error {
	h := f.hashesPerTree
	lo, hi := f.prefixRange(r, key, 1)
	// Invariant: keys [lo, hi) agree with key on depth bytes.
	for depth := 1; lo < hi; depth++ {
		nlo, nhi := hi, hi // at depth h every key left is a full match: peel them all
		if depth < h {
			want := key[depth]
			nlo = lo + sort.Search(hi-lo, func(i int) bool { return r.keys[(lo+i)*h+depth] >= want })
			nhi = nlo + sort.Search(hi-nlo, func(i int) bool { return r.keys[(nlo+i)*h+depth] > want })
		}
		if err := s.raise(r.span(lo, nlo), depth, dead); err != nil {
			return err
		}
		if err := s.raise(r.span(nhi, hi), depth, dead); err != nil {
			return err
		}
		lo, hi = nlo, nhi
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

// SpaceBytes is the index payload of the Table II space-overhead
// measure: the key and id arrays of the one-array form, count entries
// per tree. It is neither the memory the forest holds, which stores each
// tree's repeated keys once, nor anything a snapshot stores: a load
// rebuilds the forests from the signatures.
func (f *Forest) SpaceBytes() int64 {
	return int64(f.numTrees) * int64(f.count) * int64(f.hashesPerTree+4)
}

// Shape reports tree 0's live entries and the distinct keys they sit
// under: how much the forest's keys repeat. An un-indexed forest has
// staged entries and no keys yet.
func (f *Forest) Shape() (entries, keys int) {
	r := f.merged(&f.trees[0])
	return f.count, r.numKeys()
}

// idSet is a bitmap over non-negative ids, with its population count.
// A nil *idSet holds no id: the delta's dead set.
type idSet struct {
	bits []uint64
	n    int
}

func (s *idSet) has(id int32) bool {
	if s == nil {
		return false
	}
	w := int(id >> 6)
	return id >= 0 && w < len(s.bits) && s.bits[w]&(1<<(id&63)) != 0
}

// add inserts a non-negative id the set does not hold.
func (s *idSet) add(id int32) {
	w := int(id >> 6)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	s.bits[w] |= 1 << (id & 63)
	s.n++
}

func (s *idSet) reset() {
	clear(s.bits)
	s.n = 0
}
