package serve

// QueueDepth reports the tenant's current queue length.
func (a *admission) QueueDepth(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	tb := a.tenants[tenant]
	if tb == nil {
		return 0
	}
	n := 0
	for _, w := range tb.queue {
		if !w.gone {
			n++
		}
	}
	return n
}
