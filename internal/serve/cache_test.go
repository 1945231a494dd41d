package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"predication/internal/obs"
)

// TestCacheLRU: the cache holds at most max entries, evicting least
// recently used, and Get refreshes recency.
func TestCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache("t", 2, reg)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing before capacity reached")
	}
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not honored")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Error("refreshed entry a was evicted")
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Error("newest entry c missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["t_evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["t_evictions"])
	}
	if snap.Counters["t_hits"] != 3 || snap.Counters["t_misses"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1",
			snap.Counters["t_hits"], snap.Counters["t_misses"])
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; the -race
// CI stage makes this a data-race check on the LRU bookkeeping.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache("t", 8, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if v, ok := c.Get(key); ok && v.(string) != key {
					t.Errorf("key %s returned value %v", key, v)
					return
				}
				c.Add(key, key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("cache grew past its bound: %d", c.Len())
	}
}

// TestSingleflightCoalesces: concurrent callers with one key share one
// execution; distinct keys do not block each other.
func TestSingleflightCoalesces(t *testing.T) {
	var g group
	var mu sync.Mutex
	executions := 0
	gate := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do("key", func() (any, error) {
				mu.Lock()
				executions++
				mu.Unlock()
				<-gate
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Release the in-flight call only once every other caller has joined
	// it: a caller still on its way into Do when the call completes would
	// find the key forgotten and execute afresh.
	for {
		g.mu.Lock()
		joined := 0
		if c := g.m["key"]; c != nil {
			joined = c.dups
		}
		g.mu.Unlock()
		if joined == n-1 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if executions != 1 {
		t.Errorf("%d executions for %d concurrent callers, want coalescing to 1", executions, n)
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("caller %d got %v", i, v)
		}
	}

	// The key is forgotten after completion: a later call executes again.
	_, _, _ = g.Do("key", func() (any, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return "value2", nil
	})
	if executions != 2 {
		t.Errorf("completed key still coalescing: %d executions", executions)
	}
}
