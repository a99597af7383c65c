// Package storage models each worker's local filesystem cache of cloned
// repositories. It is a byte-capacity LRU with the hit/miss accounting
// behind the paper's "cache miss" metric (§6.1: the number of times
// workers did not have the necessary data locally and had to download or
// relocate it).
package storage

import (
	"container/list"
	"sync"
)

// Stats counts cache outcomes. A miss is recorded only on Access, i.e.
// when a worker actually needs the data to run a job — peeking during bid
// estimation goes through Contains and is never counted.
type Stats struct {
	// Hits is the number of Accesses that found the entry.
	Hits int
	// Misses is the number of Accesses that did not.
	Misses int
	// Evictions is the number of entries displaced to make room.
	Evictions int
	// EvictedMB is the total size of displaced entries.
	EvictedMB float64
}

type entry struct {
	key    string
	sizeMB float64
}

// Cache is a byte-capacity LRU cache. The zero value is not usable; use
// New. Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity float64 // MB; <= 0 means unbounded
	used     float64
	order    *list.List // front = most recently used
	index    map[string]*list.Element
	stats    Stats
}

// New returns a cache holding up to capacityMB megabytes. A capacity of
// zero or below means unbounded.
func New(capacityMB float64) *Cache {
	return &Cache{
		capacity: capacityMB,
		order:    list.New(),
		index:    make(map[string]*list.Element),
	}
}

// Contains reports whether key is cached, without touching recency or
// hit/miss statistics. Bid estimators use this to price data locality.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// Access records an execution-time lookup of key: a hit refreshes the
// entry's recency and returns true; a miss is counted and returns false.
func (c *Cache) Access(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	return true
}

// Put stores key with the given size, evicting least-recently-used
// entries as needed and returning the keys it displaced (in eviction
// order; nil when nothing was evicted — callers maintaining external
// location metadata, like the master's data-location index, forward
// them as eviction notices). Storing an entry larger than the whole
// capacity succeeds (the paper's workers always keep the repository
// they just cloned) but evicts everything else. Re-putting an existing
// key updates its size and recency.
func (c *Cache) Put(key string, sizeMB float64) (evicted []string) {
	if sizeMB < 0 {
		sizeMB = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		c.used += sizeMB - e.sizeMB
		e.sizeMB = sizeMB
		c.order.MoveToFront(el)
	} else {
		c.index[key] = c.order.PushFront(&entry{key: key, sizeMB: sizeMB})
		c.used += sizeMB
	}
	return c.evictLocked()
}

// evictLocked drops LRU entries until the cache fits its capacity,
// never evicting the most recently used entry. It returns the evicted
// keys in eviction order.
func (c *Cache) evictLocked() (evicted []string) {
	if c.capacity <= 0 {
		return nil
	}
	for c.used > c.capacity && c.order.Len() > 1 {
		el := c.order.Back()
		e := el.Value.(*entry)
		c.order.Remove(el)
		delete(c.index, e.key)
		c.used -= e.sizeMB
		c.stats.Evictions++
		c.stats.EvictedMB += e.sizeMB
		evicted = append(evicted, e.key)
	}
	return evicted
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// UsedMB returns the current occupancy.
func (c *Cache) UsedMB() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// CapacityMB returns the configured capacity (<= 0 meaning unbounded).
func (c *Cache) CapacityMB() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// SetCapacity changes the capacity in place, evicting LRU entries if the
// cache no longer fits. Fault-injection harnesses use it to model a disk
// losing space mid-run; <= 0 makes the cache unbounded.
func (c *Cache) SetCapacity(capacityMB float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacityMB
	c.evictLocked()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Keys returns the cached keys from most to least recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}
