package serve

// The graph-handle store: submitted graphs and their multilevel hierarchies,
// cached across requests. A handle is born "building" — the hierarchy
// construction runs in a background goroutine under a "serve/build" span —
// and flips to "ready" (or "failed") when it completes. Ready handles carry a
// warm engine pool. The store holds an LRU list under a byte budget: a
// building handle is charged its Graph.Bytes, a ready one its
// Hierarchy.MemoryBytes, which already counts the graph (level 0, or the
// coarse graph of a hierarchy with no level). Inserting past either the
// handle cap or the byte budget evicts the least-recently-used idle handle.
// Handles with in-flight solves (refs > 0) and handles still building are
// never evicted.

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/obs"
)

// ErrNoCapacity: the submitted graph cannot fit the byte budget even after
// evicting every idle handle.
var ErrNoCapacity = errors.New("serve: graph store over capacity")

// ErrNotFound: no handle with the requested id.
var ErrNotFound = errors.New("serve: graph not found")

// ErrBuilding: the handle's hierarchy build has not finished.
var ErrBuilding = errors.New("serve: hierarchy still building")

// HandleStatus is a handle's lifecycle state.
type HandleStatus string

const (
	StatusBuilding HandleStatus = "building"
	StatusReady    HandleStatus = "ready"
	StatusFailed   HandleStatus = "failed"
	// StatusDegraded: the handle's circuit breaker is open — enough
	// consecutive build failures that the store stops retrying. Solves
	// against a degraded handle fall through to Jacobi-PCG on the raw graph
	// instead of failing, trading iterations for availability.
	StatusDegraded HandleStatus = "degraded"
)

// handle is one cached graph plus its hierarchy and engine pool. Fields
// under "guarded by store.mu" must only be touched with the store lock held;
// the build goroutine publishes its result through the store's lock and the
// ready channel.
type handle struct {
	id string

	// Guarded by store.mu.
	g        *hcd.Graph    // nil while restored-but-unhydrated
	ready    chan struct{} // closed when the current build attempt finishes; replaced per attempt
	status   HandleStatus
	h        *hcd.Hierarchy
	buildErr error
	bytes    int64 // memory charged to the budget: the graph's, then the hierarchy's
	refs     int
	solves   int64
	lastUse  time.Time
	elem     *list.Element
	pool     *enginePool
	cancel   context.CancelFunc // stops an in-flight build on delete
	buildDur time.Duration
	hopt     hcd.HierarchyOptions // the options this handle builds with (persisted for rebuilds)
	failures int                  // consecutive build failures (breaker input)

	// Durable-state fields (see persist.go).
	restored  bool          // manifest-registered, snapshot not yet read
	snapFile  string        // snapshot file name in the state dir, "" if none
	n, m      int           // graph dims while g == nil
	estBytes  int64         // manifest byte estimate, for display while unhydrated
	hydrating chan struct{} // non-nil while one goroutine loads the snapshot
}

// dimN/dimM report graph dimensions whether or not the handle is hydrated.
// Callers hold store.mu.
func (h *handle) dimN() int {
	if h.g != nil {
		return h.g.N()
	}
	return h.n
}

func (h *handle) dimM() int {
	if h.g != nil {
		return h.g.M()
	}
	return h.m
}

// persistBytesLocked is the byte figure recorded in the manifest: the real
// charge once hydrated/built, the inherited estimate before that.
func (h *handle) persistBytesLocked() int64 {
	if h.bytes > 0 {
		return h.bytes
	}
	return h.estBytes
}

// HandleInfo is the externally visible snapshot of a handle.
type HandleInfo struct {
	ID        string       `json:"id"`
	Status    HandleStatus `json:"status"`
	Error     string       `json:"error,omitempty"`
	N         int          `json:"n"`
	M         int          `json:"m"`
	Bytes     int64        `json:"bytes"`
	Levels    []int        `json:"levels,omitempty"`
	Solves    int64        `json:"solves"`
	Restored  bool         `json:"restored,omitempty"` // ready from a snapshot, not yet hydrated
	BuildMS   int64        `json:"build_ms,omitempty"`
	InFlight  int          `json:"in_flight"`
	LastUseMS int64        `json:"idle_ms"`
}

type store struct {
	maxHandles int
	maxBytes   int64
	poolSize   int
	reg        *obs.Registry
	tr         *obs.Tracer
	gauges     *engineGauges
	now        func() time.Time
	pst        *persister // nil = memory-only (no -state-dir)
	breaker    int        // consecutive build failures before degrading; ≤ 0 disables

	mu     sync.Mutex
	byID   map[string]*handle
	lru    *list.List // front = most recently used; values are *handle
	bytes  int64
	nextID int64
}

func newStore(maxHandles int, maxBytes int64, poolSize int, reg *obs.Registry, tr *obs.Tracer) *store {
	return &store{
		maxHandles: maxHandles,
		maxBytes:   maxBytes,
		poolSize:   poolSize,
		reg:        reg,
		tr:         tr,
		gauges:     &engineGauges{reg: reg},
		now:        time.Now,
		byID:       make(map[string]*handle),
		lru:        list.New(),
	}
}

// Put registers a graph, kicks off its hierarchy build in the background,
// and returns the new handle. hopt overrides hcd.DefaultHierarchyOptions when
// non-nil.
func (s *store) Put(g *hcd.Graph, hopt *hcd.HierarchyOptions) (*handle, error) {
	opts := hcd.DefaultHierarchyOptions()
	if hopt != nil {
		opts = *hopt
	}
	gb := g.Bytes()
	s.mu.Lock()
	if gb > s.maxBytes {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: graph needs %d bytes, budget is %d: %w", gb, s.maxBytes, ErrNoCapacity)
	}
	if err := s.evictLocked(gb, 1); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	buildCtx, cancel := s.buildContext()
	h := &handle{
		id:      fmt.Sprintf("g-%d", s.nextID),
		g:       g,
		ready:   make(chan struct{}),
		status:  StatusBuilding,
		bytes:   gb,
		lastUse: s.now(),
		cancel:  cancel,
		hopt:    opts,
	}
	h.elem = s.lru.PushFront(h)
	s.byID[h.id] = h
	s.bytes += gb
	s.publishLocked()
	s.mu.Unlock()

	go s.build(buildCtx, h, opts)
	return h, nil
}

// buildContext manufactures the background context hierarchy builds run
// under: cancellable (delete/close stop in-flight builds) and carrying the
// store's observability sinks.
func (s *store) buildContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	if s.tr != nil {
		ctx = obs.WithTracer(ctx, s.tr)
	}
	if s.reg != nil {
		ctx = obs.WithRegistry(ctx, s.reg)
	}
	return ctx, cancel
}

// build constructs the hierarchy and publishes the result. It runs outside
// any request: a submitted graph keeps building after its submit request
// returns, and the span parents at the trace root. On success the handle is
// persisted (when a state dir is configured) before it flips ready; on
// failure the consecutive-failure counter feeds the circuit breaker —
// at the threshold the handle degrades instead of failing, and solves fall
// through to Jacobi-PCG.
func (s *store) build(ctx context.Context, h *handle, opts hcd.HierarchyOptions) {
	ctx, sp := obs.StartSpan(ctx, "serve/build")
	sp.Arg("graph", h.id)
	sp.Arg("n", h.g.N())
	sp.Arg("m", h.g.M())
	start := s.now()
	var hier *hcd.Hierarchy
	var err error
	if faultinject.Enabled() {
		err = faultinject.Err(faultinject.BuildFail)
	}
	if err == nil {
		hier, err = hcd.NewHierarchyCtx(ctx, h.g, opts)
	}
	if err == nil {
		// Solves build the hierarchy's layout view on first use;
		// build it now, so the byte budget counts it from the start.
		hier.SolveSpace(h.g)
	}
	dur := s.now().Sub(start)
	sp.End()
	observe(s.reg, metricBuildTime, dur)

	var snapFile string
	if err == nil {
		snapFile = s.persistHandle(h, h.g, hier)
	}

	s.mu.Lock()
	h.buildDur = dur
	if err != nil {
		h.buildErr = err
		h.failures++
		if s.breaker > 0 && h.failures >= s.breaker {
			h.status = StatusDegraded
			counter(s.reg, metricBreakerOpen)
		} else {
			h.status = StatusFailed
		}
		counter(s.reg, metricBuilds+`{outcome="error"}`)
	} else {
		h.status = StatusReady
		h.failures = 0
		h.h = hier
		h.snapFile = snapFile
		h.pool = newEnginePool(h.g, hier, s.poolSize, s.gauges)
		// The hierarchy holds the graph, so its bytes replace the graph's.
		hb := hier.MemoryBytes()
		s.bytes += hb - h.bytes
		h.bytes = hb
		counter(s.reg, metricBuilds+`{outcome="ok"}`)
		// The finished hierarchy may push the store past its byte budget;
		// rebalance against idle handles. Pin this handle while evicting so
		// it cannot free itself mid-publish.
		h.refs++
		_ = s.evictLocked(0, 0)
		h.refs--
	}
	ready := h.ready
	s.publishLocked()
	s.mu.Unlock()
	// Manifest before wakeup: a client whose ?wait=true returns ready must
	// be able to rely on the handle surviving a crash from that moment on.
	if snapFile != "" {
		s.syncManifest()
	}
	close(ready)
}

// retryBuild re-arms a failed handle: a solve that finds the handle failed
// schedules one fresh build attempt in the background (the client retries
// later). Degraded handles are left alone — the breaker is open precisely
// because retrying stopped helping — and handles in any other state are
// untouched.
func (s *store) retryBuild(h *handle) {
	s.mu.Lock()
	if h.status != StatusFailed || h.g == nil {
		s.mu.Unlock()
		return
	}
	buildCtx, cancel := s.buildContext()
	h.status = StatusBuilding
	h.buildErr = nil
	h.ready = make(chan struct{})
	h.cancel = cancel
	opts := h.hopt
	s.mu.Unlock()
	go s.build(buildCtx, h, opts)
}

// readyChan returns the channel that closes when the handle's current build
// attempt finishes. The channel is replaced on rebuilds, so callers must
// read it through the store lock rather than capturing h.ready directly.
func (s *store) readyChan(h *handle) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.ready
}

// evictLocked frees room for `need` extra bytes and `extra` extra handles,
// dropping idle ready/failed handles from the LRU tail. The most recently
// used handle is never evicted, so a just-submitted graph cannot be killed
// by its own arrival.
func (s *store) evictLocked(need int64, extra int) error {
	for s.lru.Len()+extra > s.maxHandles || s.bytes+need > s.maxBytes {
		var victim *handle
		for e := s.lru.Back(); e != nil && e != s.lru.Front(); e = e.Prev() {
			h := e.Value.(*handle)
			if h.refs == 0 && h.status != StatusBuilding {
				victim = h
				break
			}
		}
		if victim == nil {
			if s.bytes+need > s.maxBytes {
				return fmt.Errorf("serve: need %d bytes over %d in use (budget %d), nothing evictable: %w",
					need, s.bytes, s.maxBytes, ErrNoCapacity)
			}
			return nil // over handle cap but nothing evictable; tolerate
		}
		s.removeLocked(victim)
		counter(s.reg, metricEvictions)
	}
	return nil
}

// removeLocked unlinks a handle and returns its bytes to the budget. The
// handle's durable state goes with it: snapshot removal and the manifest
// rewrite run on a fresh goroutine because the persister lock must never be
// taken under store.mu.
func (s *store) removeLocked(h *handle) {
	if h.elem != nil {
		s.lru.Remove(h.elem)
		h.elem = nil
	}
	delete(s.byID, h.id)
	s.bytes -= h.bytes
	if h.pool != nil {
		h.pool.drop()
	}
	if h.cancel != nil {
		h.cancel()
	}
	if h.snapFile != "" && s.pst != nil {
		file := h.snapFile
		h.snapFile = ""
		go func() {
			s.pst.removeSnapshot(file)
			s.syncManifest()
		}()
	}
}

// Get returns the handle and a release func that must be called when the
// request is done with it. The handle may still be building — callers decide
// whether to wait on h.ready or fail fast.
func (s *store) Get(id string) (*handle, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.byID[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	h.refs++
	h.lastUse = s.now()
	s.lru.MoveToFront(h.elem)
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.mu.Lock()
			h.refs--
			h.lastUse = s.now()
			s.mu.Unlock()
		})
	}
	return h, release, nil
}

// Delete evicts a handle explicitly. In-flight solves holding the handle
// finish normally — the memory is reclaimed when they drop their references.
func (s *store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.byID[id]
	if !ok {
		return ErrNotFound
	}
	s.removeLocked(h)
	s.publishLocked()
	return nil
}

// List snapshots every handle, most recently used first.
func (s *store) List() []HandleInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]HandleInfo, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		infos = append(infos, s.infoLocked(e.Value.(*handle)))
	}
	return infos
}

// Info snapshots one handle.
func (s *store) Info(id string) (HandleInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.byID[id]
	if !ok {
		return HandleInfo{}, ErrNotFound
	}
	return s.infoLocked(h), nil
}

func (s *store) infoLocked(h *handle) HandleInfo {
	info := HandleInfo{
		ID:        h.id,
		Status:    h.status,
		N:         h.dimN(),
		M:         h.dimM(),
		Bytes:     h.persistBytesLocked(),
		Solves:    h.solves,
		Restored:  h.restored,
		BuildMS:   h.buildDur.Milliseconds(),
		InFlight:  h.refs,
		LastUseMS: s.now().Sub(h.lastUse).Milliseconds(),
	}
	if h.buildErr != nil {
		info.Error = h.buildErr.Error()
	}
	if h.h != nil {
		info.Levels = h.h.LevelSizes()
	}
	return info
}

// closeAll abandons every handle without touching durable state: in-flight
// builds are cancelled, pools dropped. This is the in-process stand-in for
// a crash (crash-recovery tests kill servers mid-build with it);
// snapshots and the manifest stay on disk for the next restore.
func (s *store) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.byID {
		if h.cancel != nil {
			h.cancel()
		}
		if h.pool != nil {
			h.pool.drop()
		}
	}
}

// CountSolve bumps a handle's solve counter.
func (s *store) CountSolve(h *handle) {
	s.mu.Lock()
	h.solves++
	s.mu.Unlock()
}

// Snapshot of a handle's solve-facing state: status, graph, hierarchy,
// pool, error. The graph comes through here rather than h.g directly
// because restored handles install it lazily under the store lock.
func (s *store) solveState(h *handle) (HandleStatus, *hcd.Graph, *hcd.Hierarchy, *enginePool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.status, h.g, h.h, h.pool, h.buildErr
}

func (s *store) publishLocked() {
	gaugeSet(s.reg, metricHandles, float64(s.lru.Len()))
	gaugeSet(s.reg, metricHandleBytes, float64(s.bytes))
}
