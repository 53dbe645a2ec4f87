package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBurstThenOverload: with no refill and no queue, exactly Burst tokens
// are admitted and the next request is refused with a Retry-After estimate.
func TestBurstThenOverload(t *testing.T) {
	a := newAdmission(AdmissionConfig{Rate: 1e-9, Burst: 2, MaxQueue: 0})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := a.Acquire(ctx, "t", 1); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	_, err := a.Acquire(ctx, "t", 1)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("want OverloadError, got %v", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadError does not unwrap to ErrOverloaded")
	}
	if over.Tenant != "t" || over.RetryAfter < time.Second {
		t.Fatalf("bad overload detail: %+v", over)
	}
}

// TestTenantIsolation: one tenant draining its bucket leaves another
// tenant's bucket full.
func TestTenantIsolation(t *testing.T) {
	a := newAdmission(AdmissionConfig{Rate: 1e-9, Burst: 1, MaxQueue: 0})
	ctx := context.Background()
	if _, err := a.Acquire(ctx, "noisy", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(ctx, "noisy", 1); err == nil {
		t.Fatal("noisy tenant not throttled")
	}
	if _, err := a.Acquire(ctx, "quiet", 1); err != nil {
		t.Fatalf("quiet tenant throttled by noisy: %v", err)
	}
}

// TestOversizeRequestRefused: a request larger than the burst can never be
// served and must be refused immediately rather than queued forever.
func TestOversizeRequestRefused(t *testing.T) {
	a := newAdmission(AdmissionConfig{Rate: 10, Burst: 4, MaxQueue: 8})
	var over *OverloadError
	if _, err := a.Acquire(context.Background(), "t", 100); !errors.As(err, &over) {
		t.Fatalf("want OverloadError for oversize request, got %v", err)
	}
}

// grantOrder drains the bucket, queues three waiters with distinct costs in
// a fixed arrival order, and reports the order they were granted in.
func grantOrder(t *testing.T) []float64 {
	t.Helper()
	// Rate 50/s: the head grant needs tens of milliseconds, long enough to
	// enqueue all three waiters first.
	a := newAdmission(AdmissionConfig{Rate: 50, Burst: 3, MaxQueue: 8})
	var mu sync.Mutex
	var order []float64
	a.onGrant = func(cost float64) {
		mu.Lock()
		order = append(order, cost)
		mu.Unlock()
	}
	ctx := context.Background()
	if _, err := a.Acquire(ctx, "t", 3); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, cost := range []float64{3, 1, 2} {
		wg.Add(1)
		go func(cost float64) {
			defer wg.Done()
			if _, err := a.Acquire(ctx, "t", cost); err != nil {
				t.Errorf("cost %v: %v", cost, err)
			}
		}(cost)
		// Sequence arrivals: the head grant needs ≥ 60 ms of refill, far
		// longer than this enqueue loop, so depth growing to i+1 means
		// this waiter queued in arrival order.
		deadline := time.Now().Add(2 * time.Second)
		for a.QueueDepth("t") < i+1 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never queued")
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	return order
}

func TestFCFSOrder(t *testing.T) {
	order := grantOrder(t)
	want := []float64{3, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FCFS grant order %v, want %v", order, want)
		}
	}
}

// TestCancelWhileQueued: a queued waiter whose context dies leaves the
// queue and reports the context error; the bucket spends nothing on it.
func TestCancelWhileQueued(t *testing.T) {
	a := newAdmission(AdmissionConfig{Rate: 1e-9, Burst: 1, MaxQueue: 4})
	if _, err := a.Acquire(context.Background(), "t", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, "t", 1)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.QueueDepth("t") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	if d := a.QueueDepth("t"); d != 0 {
		t.Fatalf("queue depth %d after cancel, want 0", d)
	}
}

// TestRefillGrantsQueued: with a real refill rate, a queued waiter is
// eventually granted without external help.
func TestRefillGrantsQueued(t *testing.T) {
	a := newAdmission(AdmissionConfig{Rate: 200, Burst: 1, MaxQueue: 4})
	ctx := context.Background()
	if _, err := a.Acquire(ctx, "t", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waited, err := a.Acquire(ctx, "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if waited <= 0 || time.Since(start) == 0 {
		t.Fatalf("expected a measurable queue wait, got %v", waited)
	}
}
