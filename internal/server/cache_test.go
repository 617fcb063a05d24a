package server

import (
	"fmt"
	"testing"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a was just touched, so inserting c evicts b (the LRU entry).
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Fatalf("c = %q, %v", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestResultCachePutReplaces(t *testing.T) {
	c := newResultCache(4)
	c.put("k", []byte("old"))
	c.put("k", []byte("new"))
	if v, _ := c.get("k"); string(v) != "new" {
		t.Fatalf("got %q, want new", v)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestResultCachePurge(t *testing.T) {
	c := newResultCache(8)
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	c.purge()
	if c.len() != 0 {
		t.Fatalf("len = %d after purge", c.len())
	}
	if _, ok := c.get("k0"); ok {
		t.Fatal("entry survived purge")
	}
	// The cache stays usable after purge.
	c.put("k9", []byte("v"))
	if _, ok := c.get("k9"); !ok {
		t.Fatal("cache dead after purge")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.put("k", []byte("v"))
	if _, ok := c.get("k"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

// rankingKey is the cache key a ranking route gives a k-only request
// for one target.
func rankingKey(t *testing.T, kind string, engineFP, swapGen uint64, k int, table TableJSON) string {
	t.Helper()
	return resultKey(kind, engineFP, swapGen, mustPlan(t, QueryRequest{K: &k}), false, []TableJSON{table})
}

// TestQueryKeyCanonical pins the fingerprint contract: equal queries
// collide, and every result-relevant dimension separates keys —
// including the route, so /v1/query and /v1/batch never share an entry.
func TestQueryKeyCanonical(t *testing.T) {
	base := figure1TargetJSON
	if rankingKey(t, routeQuery, 1, 0, 5, base()) != rankingKey(t, routeQuery, 1, 0, 5, base()) {
		t.Fatal("equal queries produced different keys")
	}
	distinct := map[string]string{}
	add := func(label, key string) {
		t.Helper()
		if prev, dup := distinct[key]; dup {
			t.Fatalf("%s collides with %s", label, prev)
		}
		distinct[key] = label
	}
	add("base", rankingKey(t, routeQuery, 1, 0, 5, base()))
	add("kind "+routeBatch, rankingKey(t, routeBatch, 1, 0, 5, base()))
	add("engine", rankingKey(t, routeQuery, 2, 0, 5, base()))
	add("swap generation", rankingKey(t, routeQuery, 1, 1, 5, base()))
	add("k", rankingKey(t, routeQuery, 1, 0, 6, base()))
	k := 5
	add("partial", resultKey(routeQuery, 1, 0, mustPlan(t, QueryRequest{K: &k}), true, []TableJSON{base()}))
	add("second target", resultKey(routeBatch, 1, 0, mustPlan(t, QueryRequest{K: &k}), false, []TableJSON{base(), base()}))
	cell := base()
	cell.Rows[0][0] += "x"
	add("cell", rankingKey(t, routeQuery, 1, 0, 5, cell))
	col := base()
	col.Columns[0] += "x"
	add("column", rankingKey(t, routeQuery, 1, 0, 5, col))
	name := base()
	name.Name += "x"
	add("table name", rankingKey(t, routeQuery, 1, 0, 5, name))

	// Length-prefixing: moving a byte across a field boundary must not
	// collide ("ab","c" vs "a","bc").
	ab := TableJSON{Name: "n", Columns: []string{"ab", "c"}}
	a := TableJSON{Name: "n", Columns: []string{"a", "bc"}}
	if rankingKey(t, routeQuery, 1, 0, 1, ab) == rankingKey(t, routeQuery, 1, 0, 1, a) {
		t.Fatal("field boundary shift collides")
	}
}
