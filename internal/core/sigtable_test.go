package core

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"d3l/internal/minhash"
)

// checkSigTable fails t unless e's signature table agrees with its
// records (sigTable.verify), and checks the sharing rule on its own
// terms: over every signature the engine's records hold, equal values
// are held under one id.
func checkSigTable(t testing.TB, e *Engine, label string) {
	t.Helper()
	names, values, formats := e.DistinctSignatures()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.sigs.verify(e.attrs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// DistinctSignatures against a count by value over the live tables.
	distinct := [3]map[string]bool{{}, {}, {}}
	for tid, attrs := range e.byTable {
		for _, attrID := range attrs {
			if p := e.profileOf(attrID); e.alive[tid] {
				distinct[0][fmt.Sprint(p.QSig)] = true
				if !p.Numeric {
					distinct[1][fmt.Sprint(p.TSig)] = true
				}
				distinct[2][fmt.Sprint(p.RSig)] = true
			}
		}
	}
	if names != len(distinct[0]) || values != len(distinct[1]) || formats != len(distinct[2]) {
		t.Fatalf("%s: DistinctSignatures N/V/F %d/%d/%d, the live tables hold %d/%d/%d",
			label, names, values, formats, len(distinct[0]), len(distinct[1]), len(distinct[2]))
	}
	byValue := map[string]int32{} // value -> the id seen for it
	for i := range e.attrs {
		for _, id := range [3]int32{e.attrs[i].q, e.attrs[i].t, e.attrs[i].r} {
			if id == 0 {
				continue
			}
			value := fmt.Sprint(e.sigs.sigs[id])
			if seen, ok := byValue[value]; ok && seen != id {
				t.Fatalf("%s: attribute %d holds under id %d a signature another attribute holds under id %d", label, i, id, seen)
			}
			byValue[value] = id
		}
	}
}

// TestSigTableAfterBuildDecodeAndShardBuild checks the table invariants
// where profiles enter an engine in bulk: BuildEngine, DecodeEngine (of
// a fresh snapshot and of the committed version 7 one), and a shard
// build through AddProfiled. The lake repeats signatures, so the table
// is smaller than the profiles' signature count, and a decoded engine
// shares as much as the engine it was saved from.
func TestSigTableAfterBuildDecodeAndShardBuild(t *testing.T) {
	lake := syntheticLake(t, 11, 30)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkSigTable(t, e, "BuildEngine")
	copies := len(e.sigs.heads)
	if held := 3 * len(e.attrs); copies == 0 || copies >= held/2 {
		t.Fatalf("%d distinct copies for %d held signatures: the lake should repeat more than half", copies, held)
	}
	loaded := loadedEngine(t, e)
	checkSigTable(t, loaded, "DecodeEngine")
	if len(loaded.sigs.heads) != copies {
		t.Fatalf("decoded engine holds %d distinct copies, built one %d", len(loaded.sigs.heads), copies)
	}
	n, v, f := e.DistinctSignatures()
	if ln, lv, lf := loaded.DistinctSignatures(); ln != n || lv != v || lf != f || n == 0 || v == 0 || f == 0 {
		t.Fatalf("distinct signatures N/V/F: built %d/%d/%d, decoded %d/%d/%d", n, v, f, ln, lv, lf)
	}
	v7, err := loadEngineFile(v7FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	checkSigTable(t, v7, "DecodeEngine of the version 7 fixture")
	shards, _ := buildShards(t, lake, 3)
	for i, s := range shards {
		checkSigTable(t, s, fmt.Sprintf("shard %d of 3", i))
	}
}

// TestSigTableThroughAMutationHistory runs a seeded history of adds,
// updates, removes, refused writes, compactions and save-load round
// trips, and checks the table after every step. A refused write must
// leave the table exactly as it was.
func TestSigTableThroughAMutationHistory(t *testing.T) {
	lake := syntheticLake(t, 13, 16)
	pool := slices.Clone(lake.Tables())
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	live := func() string {
		names := e.TableNames()
		return names[rng.Intn(len(names))]
	}
	for step := 0; step < 60; step++ {
		var label string
		switch op := rng.Intn(6); op {
		case 0:
			src := pool[rng.Intn(len(pool))]
			label = "add"
			tb := mustTable(t, fmt.Sprintf("hist_%d", step), colNames(src), rowsOf(src))
			if _, err := e.Add(tb); err != nil {
				t.Fatal(err)
			}
		case 1:
			name := live()
			label = "update " + name
			src := pool[rng.Intn(len(pool))]
			rows := rowsOf(src)
			rows = rows[:1+rng.Intn(len(rows))]
			if _, err := e.Update(mustTable(t, name, colNames(src), rows)); err != nil {
				t.Fatal(err)
			}
		case 2:
			name := live()
			label = "remove " + name
			if err := e.Remove(name); err != nil {
				t.Fatal(err)
			}
		case 3:
			name := live()
			label = "refused add of " + name
			before := snapshotTable(e)
			src := pool[rng.Intn(len(pool))]
			if _, err := e.Add(mustTable(t, name, colNames(src), rowsOf(src))); err == nil {
				t.Fatalf("step %d: adding the live name %s again succeeded", step, name)
			}
			if after := snapshotTable(e); after != before {
				t.Fatalf("step %d: a refused add changed the signature table:\nbefore %s\nafter  %s", step, before, after)
			}
		case 4:
			label = "compact"
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			label = "save and load"
			e = loadedEngine(t, e)
		}
		checkSigTable(t, e, fmt.Sprintf("step %d (%s)", step, label))
	}
}

// snapshotTable renders the signature table's ids and counts, for
// comparing a table before and after a write that must not touch it.
func snapshotTable(e *Engine) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fmt.Sprint(e.sigs.refs, e.sigs.free, len(e.sigs.heads))
}

// TestSigTableChurnStaysFlat adds and removes 1 000 tables whose
// signatures the lake holds nowhere else: every removal must take its
// table's copies out, so the table — its copies and its id space — ends
// where it began.
func TestSigTableChurnStaysFlat(t *testing.T) {
	e, err := BuildEngine(syntheticLake(t, 19, 4), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	copies, ids := len(e.sigs.heads), len(e.sigs.sigs)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("churn_%d", i)
		tb := mustTable(t, name, []string{fmt.Sprintf("col_%d", i)},
			[][]string{{fmt.Sprintf("v%d_a", i)}, {fmt.Sprintf("v%d_b", i)}, {fmt.Sprintf("w%d.%d", i, i)}})
		if _, err := e.Add(tb); err != nil {
			t.Fatal(err)
		}
		if len(e.sigs.heads) <= copies {
			t.Fatalf("cycle %d: adding a table of new signatures left %d copies (was %d)", i, len(e.sigs.heads), copies)
		}
		if err := e.Remove(name); err != nil {
			t.Fatal(err)
		}
		if len(e.sigs.heads) != copies {
			t.Fatalf("cycle %d: %d copies after the remove, %d before the add", i, len(e.sigs.heads), copies)
		}
	}
	if len(e.sigs.sigs) > ids+3 {
		t.Fatalf("the id space grew from %d to %d over the churn", ids, len(e.sigs.sigs))
	}
	checkSigTable(t, e, "after the churn")
}

// TestSharedSignaturesAreNeverWritten races queries against adds,
// updates and removes, and then checks that no shared copy changed: a
// checksum of every copy the table held before the race is taken again
// after it. Under -race a write into a copy a query reads is reported
// on its own.
func TestSharedSignaturesAreNeverWritten(t *testing.T) {
	lake := syntheticLake(t, 23, 14)
	pool := slices.Clone(lake.Tables())
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var copies []minhash.Signature
	var sums []uint32
	sum := func(sig minhash.Signature) uint32 {
		h := crc32.NewIEEE()
		for _, v := range sig {
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		return h.Sum32()
	}
	for _, sig := range e.sigs.sigs {
		if sig != nil {
			copies, sums = append(copies, sig), append(sums, sum(sig))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				target := pool[(w*5+i)%len(pool)]
				if _, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			src := pool[i%len(pool)]
			name := fmt.Sprintf("race_%d", i)
			if _, err := e.Add(mustTable(t, name, colNames(src), rowsOf(src))); err != nil {
				t.Error(err)
				return
			}
			rows := rowsOf(src)
			if _, err := e.Update(mustTable(t, name, colNames(src), rows[:len(rows)/2+1])); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := e.Remove(name); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	for i, sig := range copies {
		if sum(sig) != sums[i] {
			t.Fatalf("shared signature %d changed under the race", i)
		}
	}
	checkSigTable(t, e, "after the race")
}

// TestFailedSpliceTakesNoReference: a write that fails in the forests
// (here, a profile whose signature the forests refuse) leaves the table
// as it was, because the fresh profiles take their references only after
// every forest write and the commit have succeeded.
func TestFailedSpliceTakesNoReference(t *testing.T) {
	e := buildFigure1Engine(t)
	before := snapshotTable(e)
	tb := mustTable(t, "short_sigs", []string{"a", "b"}, [][]string{{"x", "1"}})
	target := mustPrepare(t, e, tb)
	target.profiles[1].RSig = target.profiles[1].RSig[:2] // too short for I_F
	if _, err := e.AddProfiled(tb, target, nil); err == nil {
		t.Fatal("a profile with a 2-slot signature was accepted")
	}
	if after := snapshotTable(e); after != before {
		t.Fatalf("a failed add changed the signature table:\nbefore %s\nafter  %s", before, after)
	}
	checkSigTable(t, e, "after a failed add")
	if e.lake.Len() != figure1Lake(t).Len() {
		t.Fatal("a failed add left a lake entry")
	}
}

// TestSigTableVerifyCatchesDamage damages a healthy table in each way
// verify guards against, one at a time, and expects it to say so: a
// checker that cannot fail would pass every test above.
func TestSigTableVerifyCatchesDamage(t *testing.T) {
	// Stubs hold no signature, and an engine of stubs alone may never
	// have filled its table.
	if err := new(sigTable).verify(make([]attr, 3)); err != nil {
		t.Fatalf("an empty table under three stubs: %v", err)
	}
	for _, c := range []struct {
		name   string
		damage func(e *Engine)
	}{
		{"a record with no id", func(e *Engine) { e.attrs[0].r = 0 }},
		{"a record holding an id past the table", func(e *Engine) { e.attrs[0].q = int32(len(e.sigs.sigs)) }},
		{"a count off by one", func(e *Engine) { e.sigs.refs[e.attrs[0].q]++ }},
		{"a copy no profile holds", func(e *Engine) {
			e.sigs.intern(minhash.Signature{1, 2, 3})
		}},
		{"two equal copies", func(e *Engine) {
			i := slices.IndexFunc(e.attrs, func(a attr) bool { return e.sigs.refs[a.r] > 1 })
			if i < 0 {
				t.Fatal("fixture: no format signature is shared")
			}
			a := &e.attrs[i]
			sig := slices.Clone(e.sigs.sigs[a.r])
			e.sigs.release(a.r)
			h := sigHash(sig)
			e.sigs.sigs, e.sigs.refs, e.sigs.next = append(e.sigs.sigs, sig), append(e.sigs.refs, 1), append(e.sigs.next, e.sigs.heads[h])
			e.sigs.heads[h] = int32(len(e.sigs.sigs) - 1)
			a.r = int32(len(e.sigs.sigs) - 1)
		}},
		{"a copy on the wrong chain", func(e *Engine) {
			id := e.attrs[0].q
			h := sigHash(e.sigs.sigs[id])
			if e.sigs.heads[h] != id || e.sigs.next[id] != 0 {
				t.Fatal("fixture: the first name signature does not head a chain of its own")
			}
			delete(e.sigs.heads, h)
			e.sigs.heads[h+1] = id
		}},
		{"a free id still in use", func(e *Engine) { e.sigs.free = append(e.sigs.free, e.attrs[0].q) }},
	} {
		e := buildFigure1Engine(t)
		checkSigTable(t, e, "before "+c.name)
		c.damage(e)
		if err := e.sigs.verify(e.attrs); err == nil {
			t.Fatalf("%s: verify passed", c.name)
		}
	}
}

// TestSigTableChainsHoldCollisions files two signatures under one hash
// by hand, since 64-bit hash collisions cannot be found by search, and
// checks that lookups walk past the other entry and that releasing the
// entry behind the chain's head unlinks it alone.
func TestSigTableChainsHoldCollisions(t *testing.T) {
	var tab sigTable
	a, b := minhash.Signature{1, 2, 3}, minhash.Signature{4, 5, 6}
	ida := tab.intern(a)
	idb := tab.intern(b)
	ha := sigHash(a)
	delete(tab.heads, sigHash(b))
	tab.next[idb], tab.heads[ha] = ida, idb // chain ha: b, then a
	if id := tab.intern(slices.Clone(a)); id != ida || &tab.sigs[id][0] != &a[0] {
		t.Fatalf("lookup behind the chain's head: id %d, want %d", id, ida)
	}
	tab.release(ida)
	tab.release(ida)
	if tab.heads[ha] != idb || tab.next[idb] != 0 || tab.sigs[ida] != nil || !slices.Equal(tab.free, []int32{ida}) {
		t.Fatalf("after releasing the entry behind the head: heads %v, next %v, free %v", tab.heads, tab.next, tab.free)
	}
}

// TestDistMemoEpochWraparound: when the epoch wraps, the memo forgets
// every slot, so a distance stamped 2^32 columns ago cannot pass for the
// current column's.
func TestDistMemoEpochWraparound(t *testing.T) {
	a := constSig(1)
	var tab sigTable
	tab.sigs = make([]minhash.Signature, 6)
	tab.sigs[5] = constSig(1)
	g, err := gridFor(len(a), 256)
	if err != nil {
		t.Fatal(err)
	}
	var m distMemo
	m.reset()
	m.slots[EvidenceName][5] = memoSlot{id: 5, epoch: 1, code: 32} // stale
	m.epoch = ^uint32(0)
	m.reset()
	if m.epoch != 1 {
		t.Fatalf("epoch %d after the wraparound, want 1", m.epoch)
	}
	if c := m.code(g, EvidenceName, a, &tab, 5); c != 0 {
		t.Fatalf("code %d: a stale slot survived the wraparound", c)
	}
	tab.sigs[5] = constSig(2)
	if c := m.code(g, EvidenceName, a, &tab, 5); c != 0 {
		t.Fatalf("code %d: the memo did not answer for id 5 within the column", c)
	}
}
