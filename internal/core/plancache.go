package core

import "sync"

// planCache is the bounded LRU of prepared plans. The zero value is
// ready (the map initialises lazily under the mutex), matching the
// scratch pools' pattern so neither BuildEngine nor the snapshot
// decoder needs wiring. The cache is a leaf lock: its mutex is only
// ever taken with no other engine lock pending below it, and the
// critical sections are map-and-pointer operations, so plan lookups
// add no meaningful contention to the query hot path.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*planNode
	// Intrusive doubly-linked LRU list: head is most recent, tail is
	// the eviction candidate.
	head, tail *planNode
}

type planNode struct {
	key        planKey
	plan       *preparedPlan
	prev, next *planNode
}

// get returns the cached plan for key (promoting it to most-recently
// used) or nil.
func (c *planCache) get(key planKey) *preparedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.entries[key]
	if n == nil {
		return nil
	}
	c.moveToFront(n)
	return n.plan
}

// put inserts a plan, evicting the least-recently-used entry past
// capacity. A racing insert of the same key keeps the incumbent: two
// queries that both missed build equivalent plans, and the first one
// in wins.
func (c *planCache) put(key planKey, p *preparedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[planKey]*planNode, planCacheCapacity)
	}
	if n := c.entries[key]; n != nil {
		c.moveToFront(n)
		return
	}
	n := &planNode{key: key, plan: p}
	c.entries[key] = n
	c.pushFront(n)
	if len(c.entries) > planCacheCapacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.key)
	}
}

// reset drops every entry.
func (c *planCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
	c.head, c.tail = nil, nil
}

// len reports the live entry count (tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *planCache) pushFront(n *planNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *planCache) unlink(n *planNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *planCache) moveToFront(n *planNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
