package core

import (
	"fmt"

	"d3l/internal/subject"
)

// Options configure how an Engine is built: every field but Parallelism
// shapes the index and is persisted in a snapshot. Query parameters —
// evidence mask, Eq. 3 weights, candidate budget, Eq. 1 weighting —
// live in QuerySpec alone. The zero value is not usable; call
// DefaultOptions and override fields.
type Options struct {
	// MinHashSize is the MinHash signature width (paper: 256).
	MinHashSize int
	// Threshold is the LSH similarity threshold τ (paper: 0.7). It
	// gates membership lookups (Algorithm 2 guards, SA-joinability).
	Threshold float64
	// QGramQ is the q-gram width for attribute names (paper: 4).
	QGramQ int
	// ForestTrees and ForestHashes configure the LSH Forest layout;
	// their product must not exceed MinHashSize.
	ForestTrees  int
	ForestHashes int
	// EmbedBits is the random-projection signature width for the E
	// index.
	EmbedBits int
	// Seed derives every hash family, so two engines with equal seeds
	// build comparable signatures.
	Seed uint64
	// Subject classifies subject attributes (Section III-C/IV). Nil
	// selects subject.Default().
	Subject *subject.Classifier
	// MaxExtentSample caps how many values per column are profiled;
	// 0 means no cap. Open-data columns are heavily repetitive, so
	// sampling preserves signal while bounding indexing cost.
	MaxExtentSample int
	// Parallelism bounds the worker pools on both sides of the engine:
	// table profiling and the four forest builds during BuildEngine, the
	// per-column candidate gather of a query (scoring is one sequential
	// loop), and the number of concurrent queries a QueryBatch call
	// runs. 0 selects GOMAXPROCS; 1 forces sequential execution.
	// Profiles, indexes and rankings are deterministic, so results are
	// identical at any setting. It is a property of the host, not of
	// the index: snapshots do not carry it, and a loaded engine starts
	// at 0.
	Parallelism int
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		MinHashSize:     256,
		Threshold:       0.7,
		QGramQ:          4,
		ForestTrees:     8,
		ForestHashes:    32,
		EmbedBits:       256,
		Seed:            0x9e3779b97f4a7c15,
		MaxExtentSample: 512,
	}
}

// Validate checks the option set.
func (o Options) Validate() error {
	if o.MinHashSize <= 0 || o.MinHashSize > maxGridWidth {
		return fmt.Errorf("core: MinHashSize must be in [1, %d], got %d", maxGridWidth, o.MinHashSize)
	}
	if o.Threshold <= 0 || o.Threshold >= 1 {
		return fmt.Errorf("core: Threshold must be in (0,1), got %v", o.Threshold)
	}
	if o.QGramQ <= 0 {
		return fmt.Errorf("core: QGramQ must be positive, got %d", o.QGramQ)
	}
	if o.ForestTrees <= 0 || o.ForestHashes <= 0 {
		return fmt.Errorf("core: forest layout must be positive, got %dx%d", o.ForestTrees, o.ForestHashes)
	}
	if o.ForestTrees*o.ForestHashes > o.MinHashSize {
		return fmt.Errorf("core: forest layout %dx%d exceeds MinHashSize %d", o.ForestTrees, o.ForestHashes, o.MinHashSize)
	}
	if o.EmbedBits <= 0 || o.EmbedBits%64 != 0 || o.EmbedBits > maxGridWidth {
		return fmt.Errorf("core: EmbedBits must be a positive multiple of 64 up to %d, got %d", maxGridWidth, o.EmbedBits)
	}
	if o.MaxExtentSample < 0 {
		return fmt.Errorf("core: MaxExtentSample must be non-negative, got %d", o.MaxExtentSample)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be non-negative, got %d", o.Parallelism)
	}
	return nil
}

// subjectClassifier resolves the configured classifier.
func (o Options) subjectClassifier() *subject.Classifier {
	if o.Subject != nil {
		return o.Subject
	}
	return subject.Default()
}
