package core

import (
	"context"
	"slices"
	"sort"
	"sync"

	"d3l/internal/embed"
	"d3l/internal/format"
	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/par"
	"d3l/internal/subject"
	"d3l/internal/table"
	"d3l/internal/tokenize"
)

// Profile is the per-attribute summary Algorithm 1 builds: the set
// representations of the four textual evidence types reduced to LSH
// signatures, plus the numeric extent for D-relatedness. Profiles are
// what gets indexed; raw extents are only retained for numeric columns
// (the paper computes KS exactly, there being no LSH scheme for it).
type Profile struct {
	Ref     AttrRef
	Name    string
	Numeric bool
	// Subject marks the table's subject attribute (Section III-C).
	Subject bool
	// EZero marks attributes with no embeddable content (numeric or
	// empty extents); their ESig is a placeholder.
	EZero bool

	// QSig is the MinHash signature of the name q-gram set Q(a).
	QSig minhash.Signature
	// TSig is the MinHash signature of the tset T(a); TSize its
	// cardinality (needed by the Section IV overlap coefficient). A
	// numeric attribute has no tset: its TSig is the full-length empty
	// signature, which no distance or probe reads.
	TSig  minhash.Signature
	TSize int
	// RSig is the MinHash signature of the rset R(a).
	RSig minhash.Signature
	// ESig is the random-projection signature of the attribute
	// embedding vector.
	ESig lsh.BitSignature

	// NumExtent is the parsed numeric extent for Numeric attributes.
	// Invariant: sorted ascending. The KS statistic is the only
	// consumer and needs sorted samples anyway, so sorting once here
	// (and once after snapshot decode) makes every guarded domain
	// distance on the query hot path allocation-free. d3ldebug builds
	// assert the invariant at every producer and consumer boundary —
	// see assertSortedExtent.
	NumExtent []float64
}

// assertSortedExtent panics under the d3ldebug build tag when the
// extent of attribute name violates the sorted-ascending invariant,
// naming the boundary that observed the corruption. In normal builds
// debugAsserts is a compile-time false and the whole call is deleted.
// Guarded boundaries: profileColumn (producer), decodeProfile
// (snapshot ingest, which re-sorts first), AddProfiled (profiles
// handed in by callers) and domainDistance (the KS consumer).
func assertSortedExtent(extent []float64, name, site string) {
	if debugAsserts && !sort.Float64sAreSorted(extent) {
		panic("core: " + site + ": Profile " + name + " NumExtent violates the sorted-ascending invariant")
	}
}

// profiler bundles the shared hash machinery.
type profiler struct {
	opts   Options
	hasher *minhash.Hasher
	planes *lsh.Planes
	model  *embed.Model
	// zeroESig is the sketch of the zero vector: the placeholder ESig of
	// every attribute with nothing to embed, shared between them as the
	// hasher's empty signature is. Nothing reads it.
	zeroESig lsh.BitSignature
	// scratch recycles the profileScratch of one target or written table
	// for the next, which reuses the buffers the last one grew.
	scratch sync.Pool
}

func newProfiler(opts Options) (*profiler, error) {
	hasher, err := minhash.NewHasher(opts.MinHashSize, opts.Seed)
	if err != nil {
		return nil, err
	}
	planes, err := lsh.NewPlanes(embed.Dim, opts.EmbedBits, opts.Seed^0xabcdef)
	if err != nil {
		return nil, err
	}
	zeroESig, err := planes.Sketch(make([]float64, embed.Dim))
	if err != nil {
		return nil, err
	}
	return &profiler{
		opts:     opts,
		hasher:   hasher,
		planes:   planes,
		model:    embed.NewModel(opts.Seed ^ 0x13572468),
		zeroESig: zeroESig,
		scratch:  sync.Pool{New: func() any { return new(profileScratch) }},
	}, nil
}

// sampleExtent caps the profiled extent deterministically (every k-th
// value) so indexing cost is bounded while coverage stays spread across
// the extent. It samples in place, overwriting values: sample i is read
// from index ⌊i·step⌋ ≥ i, which no earlier write has reached.
func (p *profiler) sampleExtent(values []string) []string {
	max := p.opts.MaxExtentSample
	if max == 0 || len(values) <= max {
		return values
	}
	step := float64(len(values)) / float64(max)
	for i := 0; i < max; i++ {
		values[i] = values[int(float64(i)*step)]
	}
	return values[:max]
}

// profileScratch carries the recycled buffers one profiling pass — a
// table, or a bulk worker's share of a lake — threads through its
// profileColumn calls, so per-value decomposition work (word ids, part
// spans, format strings) reuses memory across the pass instead of
// allocating per value. The zero value is ready to use.
type profileScratch struct {
	// values holds the column's non-null values, then their sample.
	values []string
	rset   []string
	rs     format.RSetScratch
	extent tokenize.Extent
	// emb embeds the nominated words; a bulk worker's remembers the word
	// vectors it has built, because a lake repeats its vocabulary from
	// attribute to attribute. The memo lives here and not on the shared
	// embed.Model so that it dies with the build: a serving engine's
	// model would otherwise grow with every word any target ever sent.
	// nil until the first text column asks for a plain one.
	emb *embed.Scratch
}

// putScratch returns a scratch from p.scratch once its table is
// profiled, dropping the table's cells first — the values and the words
// the extent cut from them — so a pooled scratch keeps no table alive.
func (p *profiler) putScratch(s *profileScratch) {
	clear(s.values[:cap(s.values)])
	s.values = s.values[:0]
	s.extent.Reset()
	p.scratch.Put(s)
}

// profileColumn runs Algorithm 1 for one attribute.
func (p *profiler) profileColumn(ref AttrRef, col *table.Column, scratch *profileScratch) Profile {
	prof := Profile{
		Ref:     ref,
		Name:    col.Name,
		Numeric: col.Type == table.Numeric,
	}
	// N: q-grams of the name.
	prof.QSig = p.hasher.Sketch(tokenize.QGrams(col.Name, p.opts.QGramQ))

	scratch.values = col.AppendNonNull(slices.Grow(scratch.values[:0], len(col.Values)))
	values := p.sampleExtent(scratch.values)

	// F: regex strings of the values. Numeric columns are indexed here
	// too (Section III-C: "We do index them into the name– and
	// format–related indexes").
	scratch.rset = format.RSetAppend(scratch.rset[:0], values, &scratch.rs)
	prof.RSig = p.hasher.Sketch(scratch.rset)

	if prof.Numeric {
		// V and E are not useful for numbers; keep the extent for the
		// guarded KS computation, pre-sorted so that computation never
		// has to copy it (the column's own cache stays untouched).
		prof.TSig = p.hasher.EmptySignature()
		prof.EZero = true
		prof.ESig = p.zeroESig
		if ext := col.NumericExtent(); len(ext) > 0 {
			sorted := make([]float64, len(ext))
			copy(sorted, ext)
			sort.Float64s(sorted)
			prof.NumExtent = sorted
		}
		assertSortedExtent(prof.NumExtent, prof.Name, "profileColumn")
		return prof
	}

	// One scan of each value lowers it, splits it into parts and words,
	// and counts every word in the token histogram (Algorithm 1 lines
	// 5-8); the per-part refinement of Example 2 then walks the recorded
	// parts to select tset words and embedding nominations.
	ext := &scratch.extent
	ext.Reset()
	for _, v := range values {
		ext.Add(v)
	}
	tset, embedWords := ext.Signals()
	prof.TSig = p.hasher.Sketch(tset)
	prof.TSize = len(tset)
	// Values with no frequent words still carry semantics; when nothing
	// is frequent (near-unique extents), embed the tset words instead so
	// E evidence is not silently dropped.
	if len(embedWords) == 0 {
		embedWords = tset
	}

	vec := p.attributeVector(embedWords, scratch)
	prof.EZero = embed.IsZero(vec)
	prof.ESig, _ = p.planes.Sketch(vec)
	return prof
}

// attributeVector combines the nominated words' vectors into the
// attribute's embedding. The words are sorted first (in place), so that
// the mean adds them in one order: the sum's last bits, and with them an
// ESig bit at a hyperplane, must be a function of the column's set of
// words, not of the order the values nominated them in.
func (p *profiler) attributeVector(nominated []string, scratch *profileScratch) []float64 {
	sort.Strings(nominated)
	if scratch.emb == nil {
		scratch.emb = p.model.NewScratch()
	}
	return scratch.emb.Mean(nominated)
}

// ProfileTable profiles every column of a table (which need not belong
// to the indexed lake — targets go through the same code path) and
// marks its subject attribute.
func (p *profiler) ProfileTable(tableID int, t *table.Table, classifier *subject.Classifier) []Profile {
	scratch := p.scratch.Get().(*profileScratch)
	defer p.putScratch(scratch)
	return p.profileTable(tableID, t, classifier, scratch)
}

func (p *profiler) profileTable(tableID int, t *table.Table, classifier *subject.Classifier, scratch *profileScratch) []Profile {
	subjectIdx := classifier.SubjectIndex(t)
	out := make([]Profile, t.Arity())
	for i, col := range t.Columns {
		out[i] = p.profileColumn(AttrRef{TableID: tableID, Column: i}, col, scratch)
		out[i].Subject = i == subjectIdx
	}
	return out
}

// profileTables is the bulk form of ProfileTable — a lake build, a shard
// set build: tables[i]'s profiles, stamped with table id i, land in slot
// i, computed on parallelism workers (0 selects GOMAXPROCS) that each
// hold one memoising scratch for the whole run.
func (p *profiler) profileTables(tables []*table.Table, classifier *subject.Classifier, parallelism int) [][]Profile {
	out := make([][]Profile, len(tables))
	// No item fails and the context is never done: For cannot fail.
	_ = par.For(context.Background(), len(tables), parallelism,
		func() *profileScratch { return &profileScratch{emb: p.model.NewMemoScratch()} },
		func(scratch *profileScratch, i int) error {
			out[i] = p.profileTable(i, tables[i], classifier, scratch)
			return nil
		})
	return out
}

// spaceBytes reports the serialized size of the profile's signatures
// (Table II space accounting): 4 bytes a MinHash slot, 8 a word of the
// embedding bit signature.
func (prof Profile) spaceBytes() int64 {
	total := int64(4*(len(prof.QSig)+len(prof.TSig)+len(prof.RSig)) + 8*len(prof.ESig))
	total += int64(8 * len(prof.NumExtent))
	total += int64(len(prof.Name))
	return total
}
