package storage

import (
	"fmt"
	"testing"
)

// The Access+Put hot path is internal/bench's storage_cache_put_access
// suite entry.

// BenchmarkCacheContains measures the bid-estimation peek.
func BenchmarkCacheContains(b *testing.B) {
	c := New(0)
	for i := 0; i < 128; i++ {
		c.Put(fmt.Sprintf("repo-%03d", i), 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Contains(fmt.Sprintf("repo-%03d", i%256))
	}
}

// BenchmarkCacheKeys measures the pull-request snapshot (workers attach
// their cached keys to every pull).
func BenchmarkCacheKeys(b *testing.B) {
	c := New(0)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("repo-%03d", i), 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.Keys(); len(got) != 64 {
			b.Fatal("keys lost")
		}
	}
}
