package core

import (
	"sort"

	"d3l/internal/embed"
	"d3l/internal/format"
	"d3l/internal/lsh"
	"d3l/internal/minhash"
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

	// QSig is the MinHash signature of the name q-gram set Q(a).
	QSig minhash.Signature
	// TSig is the MinHash signature of the tset T(a); TSize its
	// cardinality (needed by the Section IV overlap coefficient). A
	// numeric attribute has no tset: its TSig is the hasher's shared
	// full-length empty signature, which no distance or probe reads.
	TSig  minhash.Signature
	TSize int
	// RSig is the MinHash signature of the rset R(a).
	RSig minhash.Signature
	// ESig is the random-projection signature of the attribute
	// embedding vector; EZero marks attributes with no embeddable
	// content (numeric or empty extents).
	ESig  lsh.BitSignature
	EZero bool

	// NumExtent is the parsed numeric extent for Numeric attributes.
	// Invariant: sorted ascending. The KS statistic is the only
	// consumer and needs sorted samples anyway, so sorting once here
	// (and once after snapshot decode) makes every guarded domain
	// distance on the query hot path allocation-free. d3ldebug builds
	// assert the invariant at every producer and consumer boundary —
	// see assertSortedExtent.
	NumExtent []float64
}

// assertSortedExtent panics under the d3ldebug build tag when a
// profile's NumExtent violates the sorted-ascending invariant, naming
// the boundary that observed the corruption. In normal builds
// debugAsserts is a compile-time false and the whole call is deleted.
// Guarded boundaries: profileColumn (producer), decodeProfile
// (snapshot ingest, which re-sorts first), AddProfiled (profiles
// handed in by callers) and domainDistance (the KS consumer).
func assertSortedExtent(p *Profile, site string) {
	if debugAsserts && !sort.Float64sAreSorted(p.NumExtent) {
		panic("core: " + site + ": Profile " + p.Name + " NumExtent violates the sorted-ascending invariant")
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
	}, nil
}

// sampleExtent caps the profiled extent deterministically (every k-th
// value) so indexing cost is bounded while coverage stays spread across
// the extent.
func (p *profiler) sampleExtent(values []string) []string {
	max := p.opts.MaxExtentSample
	if max == 0 || len(values) <= max {
		return values
	}
	out := make([]string, 0, max)
	step := float64(len(values)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, values[int(float64(i)*step)])
	}
	return out
}

// profileScratch carries the recycled buffers one profiling pass — a
// table, or a bulk worker's share of a lake — threads through its
// profileColumn calls, so per-value decomposition work (tokens, part
// signals, format strings, embedded words) reuses memory across the
// pass instead of allocating per value. The zero value is ready to use.
type profileScratch struct {
	rset    []string
	rs      format.RSetScratch
	signals tokenize.SignalScratch
	words   []string
	// emb embeds the nominated words; a bulk worker's remembers the word
	// vectors it has built, because a lake repeats its vocabulary from
	// attribute to attribute. The memo lives here and not on the shared
	// embed.Model so that it dies with the build: a serving engine's
	// model would otherwise grow with every word any target ever sent.
	// nil until the first text column asks for a plain one.
	emb *embed.Scratch
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

	values := p.sampleExtent(col.NonNull())

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
		assertSortedExtent(&prof, "profileColumn")
		return prof
	}

	// One pass over the extent builds the token histogram (Algorithm 1
	// lines 5-8), then the per-part refinement of Example 2 selects
	// tset words and embedding nominations. Both passes run on the
	// table-level scratch, so the per-value decomposition allocates
	// only distinct map keys.
	hist := tokenize.NewHistogram()
	for _, v := range values {
		hist.Insert(scratch.signals.TokensAppend(v))
	}
	tset := make(map[string]struct{})
	embedWords := make(map[string]struct{})
	for _, v := range values {
		tsetWords, embWords := hist.PartSignalsScratch(v, &scratch.signals)
		for _, w := range tsetWords {
			tset[w] = struct{}{}
		}
		for _, w := range embWords {
			if hist.IsFrequent(w) {
				embedWords[w] = struct{}{}
			}
		}
	}
	// Values with no frequent words still carry semantics; when nothing
	// is frequent (near-unique extents), embed the tset words instead so
	// E evidence is not silently dropped.
	if len(embedWords) == 0 {
		embedWords = tset
	}
	prof.TSig = p.hasher.SketchSet(tset)
	prof.TSize = len(tset)

	vec := p.attributeVector(embedWords, scratch)
	prof.EZero = embed.IsZero(vec)
	prof.ESig, _ = p.planes.Sketch(vec)
	return prof
}

// attributeVector combines the nominated words' vectors into the
// attribute's embedding. The words are sorted first, so that the mean
// adds them in one order: the sum's last bits, and with them an ESig bit
// at a hyperplane, must be a function of the column, not of how a map
// happened to iterate.
func (p *profiler) attributeVector(nominated map[string]struct{}, scratch *profileScratch) []float64 {
	scratch.words = scratch.words[:0]
	for w := range nominated {
		scratch.words = append(scratch.words, w)
	}
	sort.Strings(scratch.words)
	if scratch.emb == nil {
		scratch.emb = p.model.NewScratch()
	}
	return scratch.emb.Mean(scratch.words)
}

// ProfileTable profiles every column of a table (which need not belong
// to the indexed lake — targets go through the same code path) and
// marks its subject attribute.
func (p *profiler) ProfileTable(tableID int, t *table.Table, classifier *subject.Classifier) []Profile {
	return p.profileTable(tableID, t, classifier, &profileScratch{})
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
	forEachIndexWith(len(tables), parallelism,
		func() *profileScratch { return &profileScratch{emb: p.model.NewMemoScratch()} },
		func(scratch *profileScratch, i int) {
			out[i] = p.profileTable(i, tables[i], classifier, scratch)
		})
	return out
}

// SpaceBytes reports the serialized size of the profile's signatures
// (Table II space accounting): 4 bytes a MinHash slot, 8 a word of the
// embedding bit signature.
func (prof *Profile) SpaceBytes() int64 {
	total := int64(4*(len(prof.QSig)+len(prof.TSig)+len(prof.RSig)) + 8*len(prof.ESig))
	total += int64(8 * len(prof.NumExtent))
	total += int64(len(prof.Name))
	return total
}
