package topo

// RouteCache memoizes hot routes over a T behind a bounded LRU, so
// the steady-state cost of routing is one map probe and no allocation
// while total route state stays O(capacity) instead of the O(Nodes²)
// of a per-pair table. Each network (xbar, flit) owns its own
// instance: the cache is not safe for concurrent use, and keeping it
// per network is what lets T itself stay immutable and lock-free.
//
// Returned hop slices are shared between the cache and every caller
// that looked them up: treat them as immutable. Eviction only drops
// the cache's reference — a message still in flight keeps its route
// alive, so bounded capacity never corrupts live traffic.
type RouteCache struct {
	t    *T
	cap  int
	idx  map[uint64]int32
	ents []rcEnt
	// head/tail of the intrusive LRU list (head = most recent).
	head, tail int32
}

type rcEnt struct {
	key        uint64
	hops       []Hop
	prev, next int32
}

// DefaultRouteCacheEntries holds the full working set of the paper's
// machines (the 16-node evaluation needs ~1.5K distinct routes, the
// 64-node scalability point ~12K) while bounding big machines: a
// 1024-node run keeps its hottest 32K paths and recomputes the cold
// tail arithmetically.
const DefaultRouteCacheEntries = 1 << 15

// route-kind tags for cache keys.
const (
	rcForward = iota
	rcBackward
	rcTurnaround
	rcFrom
	rcFromMem
)

// key packs (kind, a, b, sel) into one word. Node and switch indices
// fit 20 bits (a million endpoints) and sel is pre-reduced modulo
// SelPeriod, which fits the remaining 21 bits for every geometry the
// index widths admit.
func rcKey(kind, a, b, sel int) uint64 {
	return uint64(kind) | uint64(a)<<3 | uint64(b)<<23 | uint64(sel)<<43
}

// NewRouteCache builds a cache over t holding up to capacity routes
// (DefaultRouteCacheEntries when capacity <= 0).
func NewRouteCache(t *T, capacity int) *RouteCache {
	if capacity <= 0 {
		capacity = DefaultRouteCacheEntries
	}
	return &RouteCache{
		t:    t,
		cap:  capacity,
		idx:  make(map[uint64]int32, capacity),
		head: -1,
		tail: -1,
	}
}

// get returns the cached route for key and marks it most-recent.
func (c *RouteCache) get(key uint64) ([]Hop, bool) {
	i, ok := c.idx[key]
	if !ok {
		return nil, false
	}
	c.touch(i)
	return c.ents[i].hops, true
}

// touch moves entry i to the LRU head.
func (c *RouteCache) touch(i int32) {
	if c.head == i {
		return
	}
	e := &c.ents[i]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	}
	if c.tail == i {
		c.tail = e.prev
	}
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// put inserts a freshly computed route, evicting the least-recent
// entry when full. Evicted slots are reused in place; the evicted hop
// slice itself is released to the collector (never overwritten), so
// routes held by in-flight messages stay intact.
func (c *RouteCache) put(key uint64, hops []Hop) {
	var i int32
	if len(c.ents) < c.cap {
		i = int32(len(c.ents))
		c.ents = append(c.ents, rcEnt{prev: -1, next: -1})
	} else {
		i = c.tail
		e := &c.ents[i]
		delete(c.idx, e.key)
		c.tail = e.prev
		if c.tail >= 0 {
			c.ents[c.tail].next = -1
		} else {
			c.head = -1
		}
		e.prev, e.next = -1, -1
	}
	c.ents[i].key, c.ents[i].hops = key, hops
	c.idx[key] = i
	e := &c.ents[i]
	e.next = c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Forward is T.Forward through the cache.
func (c *RouteCache) Forward(proc, mem int) []Hop {
	key := rcKey(rcForward, proc, mem, 0)
	if h, ok := c.get(key); ok {
		return h
	}
	h := c.t.Forward(proc, mem)
	c.put(key, h)
	return h
}

// Backward is T.Backward through the cache.
func (c *RouteCache) Backward(mem, proc int) []Hop {
	key := rcKey(rcBackward, mem, proc, 0)
	if h, ok := c.get(key); ok {
		return h
	}
	h := c.t.Backward(mem, proc)
	c.put(key, h)
	return h
}

// Turnaround is T.Turnaround through the cache; sel is reduced to its
// effective period before keying.
func (c *RouteCache) Turnaround(src, dst, sel int) []Hop {
	s := sel % c.t.selPeriod
	if s < 0 {
		s += c.t.selPeriod
	}
	key := rcKey(rcTurnaround, src, dst, s)
	if h, ok := c.get(key); ok {
		return h
	}
	h := c.t.Turnaround(src, dst, s)
	c.put(key, h)
	return h
}

// RouteFrom is T.RouteFrom through the cache. The injection port is
// not part of the key: for a given T it is a constant (the switch-
// internal pseudo-port), and the cached route embeds it.
func (c *RouteCache) RouteFrom(sw SwitchID, in Port, memSide bool, node, sel int) []Hop {
	kind := rcFrom
	s := 0
	if memSide {
		kind = rcFromMem
	} else {
		s = sel % c.t.selPeriod
		if s < 0 {
			s += c.t.selPeriod
		}
	}
	key := rcKey(kind, c.t.SwitchOrdinal(sw), node, s)
	if h, ok := c.get(key); ok {
		return h
	}
	h := c.t.RouteFrom(sw, in, memSide, node, sel)
	c.put(key, h)
	return h
}

// Len reports the number of cached routes (for tests and memory
// accounting).
func (c *RouteCache) Len() int { return len(c.ents) }
