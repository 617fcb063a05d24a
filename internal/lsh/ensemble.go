package lsh

import (
	"fmt"
	"sort"
)

// Ensemble is an LSH Ensemble-style index (Zhu, Nargesian, Pu, Miller;
// PVLDB 2016): items are partitioned by set cardinality and each
// partition gets its own banded index tuned so that a *containment*
// threshold on the query translates into the correct per-partition
// Jaccard threshold. The paper (Section II) cites this as an LSH
// improvement compatible with D3L's use case for sets with skewed
// lengths; we ship it as the optional value-index backend.
type Ensemble struct {
	threshold  float64 // containment threshold
	numHash    int
	partitions []ensemblePartition
}

type ensemblePartition struct {
	loSize, hiSize int // inclusive cardinality range
	index          *Banded
	sizes          map[int32]int
}

type ensembleItem struct {
	id   int32
	size int
	sig  []uint32
}

// EnsembleBuilder accumulates items before partitioning; LSH Ensemble
// needs the full size distribution to cut equi-depth partitions.
type EnsembleBuilder struct {
	threshold     float64
	numHash       int
	numPartitions int
	items         []ensembleItem
}

// NewEnsembleBuilder prepares an ensemble over signatures of numHash
// values with the given containment threshold and partition count.
func NewEnsembleBuilder(threshold float64, numHash, numPartitions int) (*EnsembleBuilder, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("lsh: containment threshold must be in (0,1], got %v", threshold)
	}
	if numHash <= 0 || numPartitions <= 0 {
		return nil, fmt.Errorf("lsh: numHash (%d) and numPartitions (%d) must be positive", numHash, numPartitions)
	}
	return &EnsembleBuilder{threshold: threshold, numHash: numHash, numPartitions: numPartitions}, nil
}

// Add registers an item with the cardinality of its underlying set.
func (b *EnsembleBuilder) Add(id int32, size int, sig []uint32) error {
	if len(sig) < b.numHash {
		return fmt.Errorf("lsh: signature has %d values, ensemble needs %d", len(sig), b.numHash)
	}
	if size < 0 {
		return fmt.Errorf("lsh: negative set size %d", size)
	}
	b.items = append(b.items, ensembleItem{id: id, size: size, sig: sig})
	return nil
}

// Build partitions the items equi-depth by size and constructs the
// per-partition indexes.
func (b *EnsembleBuilder) Build() (*Ensemble, error) {
	if len(b.items) == 0 {
		return &Ensemble{threshold: b.threshold, numHash: b.numHash}, nil
	}
	sort.Slice(b.items, func(i, j int) bool { return b.items[i].size < b.items[j].size })
	nParts := b.numPartitions
	if nParts > len(b.items) {
		nParts = len(b.items)
	}
	e := &Ensemble{threshold: b.threshold, numHash: b.numHash}
	per := (len(b.items) + nParts - 1) / nParts
	for start := 0; start < len(b.items); {
		end := start + per
		if end > len(b.items) {
			end = len(b.items)
		}
		// Extend the cut so equal sizes never straddle partitions.
		for end < len(b.items) && b.items[end].size == b.items[end-1].size {
			end++
		}
		chunk := b.items[start:end]
		hi := chunk[len(chunk)-1].size
		// Containment t on a query of size q against items of size <= hi
		// implies Jaccard >= t*q/(q+hi-t*q); tune the partition's banding
		// for a representative query size equal to the partition median.
		median := chunk[len(chunk)/2].size
		jt := jaccardFloor(b.threshold, median, hi)
		bands, rows := OptimalParams(jt, b.numHash)
		idx := MustBanded(bands, rows)
		sizes := make(map[int32]int, len(chunk))
		for _, it := range chunk {
			if err := idx.Add(it.id, it.sig); err != nil {
				return nil, err
			}
			sizes[it.id] = it.size
		}
		e.partitions = append(e.partitions, ensemblePartition{
			loSize: chunk[0].size, hiSize: hi, index: idx, sizes: sizes,
		})
		start = end
	}
	return e, nil
}

// jaccardFloor lower-bounds Jaccard similarity given containment t,
// query size q and the maximum candidate size hi (inclusion–exclusion).
func jaccardFloor(t float64, q, hi int) float64 {
	if q <= 0 {
		return t
	}
	inter := t * float64(q)
	union := float64(q) + float64(hi) - inter
	if union <= 0 {
		return 1
	}
	j := inter / union
	if j <= 0 {
		return 0.01
	}
	if j > 1 {
		return 1
	}
	return j
}

// Partitions reports the number of partitions built.
func (e *Ensemble) Partitions() int { return len(e.partitions) }

// Query returns candidates whose containment with the query likely
// exceeds the ensemble threshold. querySize is the cardinality of the
// query set.
func (e *Ensemble) Query(sig []uint32, querySize int) ([]int32, error) {
	if len(sig) < e.numHash {
		return nil, fmt.Errorf("lsh: signature has %d values, ensemble needs %d", len(sig), e.numHash)
	}
	seen := make(map[int32]struct{})
	var out []int32
	for i := range e.partitions {
		p := &e.partitions[i]
		// Partitions whose items are all far smaller than the required
		// intersection cannot reach the containment threshold.
		if float64(p.hiSize) < e.threshold*float64(querySize)*0.5 {
			continue
		}
		ids, err := p.index.Query(sig)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out, nil
}

// SpaceBytes sums the partition index footprints.
func (e *Ensemble) SpaceBytes() int64 {
	var total int64
	for i := range e.partitions {
		total += e.partitions[i].index.SpaceBytes()
	}
	return total
}

// PartitionBounds returns the (lo, hi) size bounds of partition i, for
// tests and introspection.
func (e *Ensemble) PartitionBounds(i int) (int, int) {
	return e.partitions[i].loSize, e.partitions[i].hiSize
}
