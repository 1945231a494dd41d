package serve

import "sync"

// group coalesces concurrent calls with the same key into one execution:
// the first caller runs fn, every concurrent duplicate blocks and
// receives the same result.  The key is forgotten once the call
// completes, so later requests (a cache miss after eviction, say)
// execute afresh.  This is the classic singleflight shape, local to the
// daemon so the repository stays dependency-free.
type group struct {
	mu sync.Mutex
	m  map[string]*call
}

type call struct {
	wg  sync.WaitGroup
	val any
	err error
	// dups counts the duplicate callers that joined this execution; it is
	// guarded by group.mu.
	dups int
}

// Do executes fn once per concurrent set of callers with the same key.
// shared is false for the caller that executed fn and true for every
// duplicate that joined it — the daemon labels the former's response a
// cache miss and the latters' coalesced.
func (g *group) Do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*call{}
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}
