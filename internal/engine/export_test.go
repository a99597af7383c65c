package engine

// Node exposes a member's worker node to the external tests, which
// assemble by hand the per-worker report Run adds to a session's.
func (c *Cluster) Node(name string) *Worker { return c.worker(name) }
