package server

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU keyed by canonical fingerprints (see
// querykey.go). The server keeps two: the result cache over marshaled
// response bodies, and the shard replica's memo of prepared targets
// (shard_handlers.go).
type lruCache[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	byK map[string]*list.Element
}

type cacheEntry[V any] struct {
	key string
	val V
}

// resultCache is the LRU over marshaled response bodies. Its keys embed
// the engine fingerprint, so entries computed before a mutation or an
// engine swap can never be returned afterwards — their keys are
// unreachable. The server additionally purges on mutation and swap so
// dead entries release memory immediately instead of aging out.
//
// Values are fully marshaled JSON bodies: a hit is a single write
// with zero re-encoding, and replayed responses are byte-identical to
// the first answer (the property the golden tests pin).
type resultCache = lruCache[[]byte]

// newResultCache returns a cache holding at most capacity entries; a
// non-positive capacity disables caching (every get misses, puts are
// dropped).
func newResultCache(capacity int) *resultCache { return newLRUCache[[]byte](capacity) }

func newLRUCache[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		cap: capacity,
		ll:  list.New(),
		byK: make(map[string]*list.Element),
	}
}

// get returns the cached value for key and whether it was present,
// promoting the entry to most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// put stores val under key, evicting the least recently used entry
// when the cache is full. Callers must not mutate val afterwards.
func (c *lruCache[V]) put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*cacheEntry[V]).key)
	}
}

// purge drops every entry. Called after mutations and engine swaps:
// key versioning already makes stale entries unreachable, purging
// just returns their memory now.
func (c *lruCache[V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.byK)
}

// len reports the current entry count.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
