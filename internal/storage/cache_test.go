package storage

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAccessMissThenHit(t *testing.T) {
	c := New(100)
	if c.Access("r1") {
		t.Error("Access on empty cache = hit")
	}
	c.Put("r1", 10)
	if !c.Access("r1") {
		t.Error("Access after Put = miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", s)
	}
}

func TestContainsDoesNotTouchStats(t *testing.T) {
	c := New(100)
	c.Put("r1", 10)
	c.Contains("r1")
	c.Contains("absent")
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("Contains affected stats: %+v", s)
	}
	if !c.Contains("r1") || c.Contains("absent") {
		t.Error("Contains gave wrong answers")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(30)
	c.Put("a", 10)
	c.Put("b", 10)
	c.Put("c", 10)
	c.Access("a")  // refresh a; LRU order now a,c,b
	c.Put("d", 10) // evicts b
	if c.Contains("b") {
		t.Error("b not evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Errorf("%s wrongly evicted", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.EvictedMB != 10 {
		t.Errorf("eviction stats = %+v", s)
	}
}

func TestOversizeEntryKept(t *testing.T) {
	c := New(50)
	c.Put("small", 10)
	c.Put("huge", 500) // larger than capacity: keep it, evict the rest
	if !c.Contains("huge") {
		t.Error("most recent entry evicted")
	}
	if c.Contains("small") {
		t.Error("small survived a full eviction")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestRePutUpdatesSizeAndRecency(t *testing.T) {
	c := New(100)
	c.Put("a", 40)
	c.Put("b", 40)
	c.Put("a", 60) // grow a, refresh it; used = 100
	if got := c.UsedMB(); got != 100 {
		t.Errorf("UsedMB = %v, want 100", got)
	}
	c.Put("c", 10) // overflow evicts LRU = b
	if c.Contains("b") || !c.Contains("a") || !c.Contains("c") {
		t.Errorf("wrong eviction after re-put; keys = %v", c.Keys())
	}
}

func TestUnboundedCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("r%d", i), 1000)
	}
	if c.Len() != 1000 {
		t.Errorf("unbounded cache evicted: Len = %d", c.Len())
	}
	if c.CapacityMB() != 0 {
		t.Errorf("CapacityMB = %v", c.CapacityMB())
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(0)
	c.Put("a", 1)
	c.Put("b", 1)
	c.Put("c", 1)
	c.Access("a")
	got := c.Keys()
	want := []string{"a", "c", "b"}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestNegativeSizeClamped(t *testing.T) {
	c := New(100)
	c.Put("weird", -5)
	if c.UsedMB() != 0 {
		t.Errorf("UsedMB = %v after negative-size put", c.UsedMB())
	}
	if !c.Contains("weird") {
		t.Error("negative-size entry not stored")
	}
}

// Property: used never exceeds capacity when every entry fits
// individually, and used always equals the sum of resident entry sizes.
func TestPropertyCapacityInvariant(t *testing.T) {
	prop := func(ops []uint16) bool {
		const capMB = 500
		c := New(capMB)
		sizes := make(map[string]float64)
		for _, op := range ops {
			key := fmt.Sprintf("r%d", op%50)
			size := float64(op%capMB) + 1 // 1..500, each fits alone
			c.Put(key, size)
			sizes[key] = size
		}
		if c.Len() > 0 && c.UsedMB() > capMB {
			return false
		}
		var sum float64
		for _, k := range c.Keys() {
			sum += sizes[k]
		}
		return abs(sum-c.UsedMB()) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSetCapacityShrinkEvictsLRU(t *testing.T) {
	c := New(100)
	c.Put("a", 30)
	c.Put("b", 30)
	c.Put("c", 30)
	c.Access("a") // a becomes most recent
	c.SetCapacity(40)
	if !c.Contains("a") {
		t.Error("most recent entry evicted by shrink")
	}
	if c.Contains("b") || c.Contains("c") {
		t.Error("LRU entries survived a shrink below their size")
	}
	if got := c.CapacityMB(); got != 40 {
		t.Errorf("CapacityMB = %v, want 40", got)
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", s.Evictions)
	}
}

func TestSetCapacityUnboundedKeepsEverything(t *testing.T) {
	c := New(50)
	c.Put("a", 20)
	c.Put("b", 20)
	c.SetCapacity(0) // unbounded
	c.Put("big", 500)
	if !c.Contains("a") || !c.Contains("b") || !c.Contains("big") {
		t.Error("unbounded cache evicted entries")
	}
}

// Property: hits + misses equals the number of Access calls.
func TestPropertyAccessAccounting(t *testing.T) {
	prop := func(ops []uint8) bool {
		c := New(64)
		accesses := 0
		for _, op := range ops {
			key := fmt.Sprintf("r%d", op%16)
			if op%3 == 0 {
				c.Put(key, float64(op%32)+1)
			} else {
				c.Access(key)
				accesses++
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == accesses
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPutReturnsEvictedKeys(t *testing.T) {
	c := New(100)
	if ev := c.Put("a", 40); ev != nil {
		t.Errorf("first Put evicted %v", ev)
	}
	c.Put("b", 40)
	// 60MB more displaces a then b (LRU order).
	ev := c.Put("c", 60)
	if len(ev) != 1 || ev[0] != "a" {
		t.Errorf("evicted = %v, want [a]", ev)
	}
	ev = c.Put("d", 90)
	if len(ev) != 2 || ev[0] != "b" || ev[1] != "c" {
		t.Errorf("evicted = %v, want [b c] in LRU order", ev)
	}
	if got := c.Stats().Evictions; got != 3 {
		t.Errorf("Evictions = %d, want 3", got)
	}
}
