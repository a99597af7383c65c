package engine

// Node exposes a member's worker node to the external tests, which
// assemble by hand the per-worker report Run adds to a session's.
func (c *Cluster) Node(name string) *Worker { return c.worker(name) }

// OriginEntries is how many jobs the worker remembers a reply origin for.
func (w *Worker) OriginEntries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobOrigin)
}
