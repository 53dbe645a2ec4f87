package serve

// Per-tenant admission control: a token bucket per tenant plus a bounded
// wait queue. A request that finds tokens available proceeds immediately; one
// that does not either queues (granted in arrival order) or — when the queue
// is full — is refused with an OverloadError carrying a Retry-After hint. One
// tenant exhausting its bucket never touches another tenant's: buckets are
// independent and the dispatcher is per tenant.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is the sentinel wrapped by every admission refusal.
var ErrOverloaded = errors.New("serve: tenant overloaded")

// OverloadError reports an admission refusal: the tenant's bucket is empty
// and its queue is full. RetryAfter estimates when the bucket will hold
// enough tokens for the refused request (the HTTP layer rounds it up into a
// Retry-After header).
type OverloadError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: tenant %q overloaded, retry after %v", e.Tenant, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// AdmissionConfig tunes the per-tenant token buckets. A zero Rate or Burst
// takes its default; a zero MaxQueue means no queue.
type AdmissionConfig struct {
	// Rate is the token refill rate per tenant in tokens/second
	// (default 50). One solve right-hand side costs one token.
	Rate float64
	// Burst caps a bucket (default 100): the largest instantaneous spend.
	Burst float64
	// MaxQueue bounds the per-tenant wait queue (default 64). 0 is honored
	// as "no queue": anything beyond the burst is refused immediately.
	// (Use a negative value for the default.)
	MaxQueue int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Burst <= 0 {
		c.Burst = 100
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 64
	}
	return c
}

type waiter struct {
	cost    float64
	grant   chan struct{}
	granted bool
	gone    bool // cancelled; dispatcher discards without spending
}

type tenantBucket struct {
	tokens  float64
	last    time.Time
	queue   []*waiter
	running bool // dispatcher goroutine live
}

// admission implements the token-bucket admission controller.
type admission struct {
	cfg AdmissionConfig
	now func() time.Time // swapped in tests
	// onGrant, when non-nil, observes each queued grant in dispatch order
	// (called under the lock). Tests use it to assert arrival order.
	onGrant func(cost float64)

	mu      sync.Mutex
	tenants map[string]*tenantBucket
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		tenants: make(map[string]*tenantBucket),
	}
}

func (a *admission) bucketLocked(tenant string) *tenantBucket {
	tb := a.tenants[tenant]
	if tb == nil {
		tb = &tenantBucket{tokens: a.cfg.Burst, last: a.now()}
		a.tenants[tenant] = tb
	}
	return tb
}

func (a *admission) refillLocked(tb *tenantBucket) {
	now := a.now()
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens = min(a.cfg.Burst, tb.tokens+dt*a.cfg.Rate)
	}
	tb.last = now
}

// retryAfterLocked estimates how long until the bucket can cover cost after
// everything already queued drains.
func (a *admission) retryAfterLocked(tb *tenantBucket, cost float64) time.Duration {
	need := cost - tb.tokens
	for _, w := range tb.queue {
		if !w.gone {
			need += w.cost
		}
	}
	if need <= 0 {
		return time.Second
	}
	d := time.Duration(need / a.cfg.Rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Acquire blocks until the tenant's bucket covers cost, the context is
// cancelled, or admission refuses. It returns nil on admission, ctx.Err() on
// cancellation, and an *OverloadError when the bucket is dry and the queue
// full. waited reports time spent queued.
func (a *admission) Acquire(ctx context.Context, tenant string, cost float64) (waited time.Duration, err error) {
	if cost <= 0 {
		cost = 1
	}
	if cost > a.cfg.Burst {
		// A request larger than the burst can never be admitted; refuse
		// now rather than queueing it forever.
		return 0, &OverloadError{Tenant: tenant, RetryAfter: time.Second}
	}
	a.mu.Lock()
	tb := a.bucketLocked(tenant)
	a.refillLocked(tb)
	if len(tb.queue) == 0 && tb.tokens >= cost {
		tb.tokens -= cost
		a.mu.Unlock()
		return 0, nil
	}
	if len(tb.queue) >= a.cfg.MaxQueue {
		retry := a.retryAfterLocked(tb, cost)
		a.mu.Unlock()
		return 0, &OverloadError{Tenant: tenant, RetryAfter: retry}
	}
	w := &waiter{cost: cost, grant: make(chan struct{})}
	tb.queue = append(tb.queue, w)
	if !tb.running {
		tb.running = true
		go a.dispatch(tb)
	}
	a.mu.Unlock()

	start := a.now()
	select {
	case <-w.grant:
		return a.now().Sub(start), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; the tokens are spent, so
			// proceed — the caller's context check will surface the
			// cancellation in the solve itself.
			a.mu.Unlock()
			return a.now().Sub(start), nil
		}
		w.gone = true
		a.mu.Unlock()
		return a.now().Sub(start), ctx.Err()
	}
}

// dispatch drains one tenant's queue in order, sleeping exactly as long as
// the head waiter needs the bucket to refill. It exits when the queue
// empties; Acquire restarts it on the next enqueue.
func (a *admission) dispatch(tb *tenantBucket) {
	for {
		a.mu.Lock()
		a.refillLocked(tb)
		for len(tb.queue) > 0 && tb.queue[0].gone {
			tb.queue = tb.queue[1:]
		}
		if len(tb.queue) == 0 {
			tb.running = false
			a.mu.Unlock()
			return
		}
		w := tb.queue[0]
		if tb.tokens >= w.cost {
			tb.tokens -= w.cost
			tb.queue = tb.queue[1:]
			w.granted = true
			if a.onGrant != nil {
				a.onGrant(w.cost)
			}
			close(w.grant)
			a.mu.Unlock()
			continue
		}
		wait := time.Duration((w.cost - tb.tokens) / a.cfg.Rate * float64(time.Second))
		a.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
	}
}
