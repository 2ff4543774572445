package crowddb

import (
	"sync"
	"time"

	"crowdselect/internal/core"
)

// latencyBuckets are the upper bounds, in seconds, of the fixed
// log-spaced latency histogram each endpoint accumulates into. The
// final bucket is an implicit +Inf overflow.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointStats accumulates one endpoint's counters. Latencies live in
// a fixed histogram rather than a sample buffer so memory stays
// constant under heavy traffic.
type endpointStats struct {
	count   int64
	errors  int64
	sum     float64 // seconds
	max     float64 // seconds
	buckets []int64 // len(latencyBuckets)+1, last is overflow
}

// Metrics aggregates per-endpoint request counts, error counts and
// latency histograms for the crowd-manager HTTP server. All methods
// are safe for concurrent use.
type Metrics struct {
	mu           sync.Mutex
	start        time.Time
	endpoints    map[string]*endpointStats
	shed         int64
	shedReads    int64
	shedWrites   int64
	deadlineOver int64
	legs         [numSelectionLegs]int64
}

// selectionLeg names the fleet-selection legs a node counts (DESIGN
// §11, "The fleet projects once").
type selectionLeg int

const (
	legProjected  selectionLeg = iota // texts in, scores + categories out
	legScoredOnly                     // categories in, scores out
	legMismatch                       // categories refused: category_mismatch
	numSelectionLegs
)

// NewMetrics returns an empty registry with uptime anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: make(map[string]*endpointStats)}
}

// Observe records one request against an endpoint label (for the
// server: "METHOD /normalized/path"). Responses with status ≥ 400
// count as errors.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.endpoints[endpoint]
	if st == nil {
		st = &endpointStats{buckets: make([]int64, len(latencyBuckets)+1)}
		m.endpoints[endpoint] = st
	}
	st.count++
	if status >= 400 {
		st.errors++
	}
	st.sum += sec
	if sec > st.max {
		st.max = sec
	}
	b := len(latencyBuckets)
	for i, hi := range latencyBuckets {
		if sec <= hi {
			b = i
			break
		}
	}
	st.buckets[b]++
}

// ObserveShed counts one request refused by the load-shedding gate,
// split by priority class (mutations shed only after reads).
func (m *Metrics) ObserveShed(mutation bool) {
	m.mu.Lock()
	m.shed++
	if mutation {
		m.shedWrites++
	} else {
		m.shedReads++
	}
	m.mu.Unlock()
}

// ObserveDeadlineOverrun counts one request whose server-side deadline
// budget expired before the handler finished — the admission
// controller's overload signal.
func (m *Metrics) ObserveDeadlineOverrun() {
	m.mu.Lock()
	m.deadlineOver++
	m.mu.Unlock()
}

// observeSelectionLeg counts one fleet-selection leg by kind.
func (m *Metrics) observeSelectionLeg(kind selectionLeg) {
	m.mu.Lock()
	m.legs[kind]++
	m.mu.Unlock()
}

// SelectionLegsSnapshot counts the selections requests a coordinator
// sent this node as legs of a fleet selection. A healthy fleet shows
// Projected and ScoredOnly in the ratio 1 : N−1 summed over its nodes;
// CategoryMismatch counts legs this node refused because its category
// parameters differ from the projecting shard's — each one was then
// re-sent as text and projected a second time.
type SelectionLegsSnapshot struct {
	Projected        int64 `json:"projected"`
	ScoredOnly       int64 `json:"scored_only"`
	CategoryMismatch int64 `json:"category_mismatch"`
}

// EndpointMetrics is one endpoint's externally visible counters;
// latencies are reported in milliseconds.
type EndpointMetrics struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// MetricsSnapshot is the GET /api/v1/metrics payload. Durability is
// populated by the server when a durable DB backs the service.
type MetricsSnapshot struct {
	UptimeSeconds    float64                    `json:"uptime_seconds"`
	Requests         int64                      `json:"requests"`
	Errors           int64                      `json:"errors"`
	Shed             int64                      `json:"shed"`
	ShedReads        int64                      `json:"shed_reads"`
	ShedMutations    int64                      `json:"shed_mutations"`
	DeadlineOverruns int64                      `json:"deadline_overruns"`
	Endpoints        map[string]EndpointMetrics `json:"endpoints"`
	Admission        *AdmissionSnapshot         `json:"admission,omitempty"`
	Durability       *DurabilitySnapshot        `json:"durability,omitempty"`
	Replication      *ReplicationStatus         `json:"replication,omitempty"`
	Fencing          *FenceStatus               `json:"fencing,omitempty"`
	Cache            *core.ProjectionCacheStats `json:"cache,omitempty"`
	// SelectionLegs appears once this node has served a leg of a fleet
	// selection.
	SelectionLegs *SelectionLegsSnapshot `json:"selection_legs,omitempty"`
	Shard         *ShardInfoSnapshot     `json:"shard,omitempty"`
	Integrity     *IntegritySnapshot     `json:"integrity,omitempty"`
	// Tenants appears on multi-tenant nodes (or when the default tenant
	// carries a quota): per-tenant request, in-flight and shed counters.
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`
}

// ShardInfoSnapshot is the shard section of GET /api/v1/metrics: this
// node's identity in the fleet and its current topology epoch.
type ShardInfoSnapshot struct {
	Index int    `json:"index"`
	Count int    `json:"count"`
	Epoch uint64 `json:"epoch"`
}

// Snapshot returns a consistent copy of every counter.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Shed:             m.shed,
		ShedReads:        m.shedReads,
		ShedMutations:    m.shedWrites,
		DeadlineOverruns: m.deadlineOver,
		Endpoints:        make(map[string]EndpointMetrics, len(m.endpoints)),
	}
	for name, st := range m.endpoints {
		em := EndpointMetrics{
			Count:  st.count,
			Errors: st.errors,
			MeanMs: st.sum / float64(st.count) * 1000,
			MaxMs:  st.max * 1000,
			P50Ms:  st.quantile(0.50) * 1000,
			P90Ms:  st.quantile(0.90) * 1000,
			P99Ms:  st.quantile(0.99) * 1000,
		}
		snap.Requests += st.count
		snap.Errors += st.errors
		snap.Endpoints[name] = em
	}
	if m.legs != [numSelectionLegs]int64{} {
		snap.SelectionLegs = &SelectionLegsSnapshot{
			Projected:        m.legs[legProjected],
			ScoredOnly:       m.legs[legScoredOnly],
			CategoryMismatch: m.legs[legMismatch],
		}
	}
	return snap
}

// quantile estimates the q-th latency quantile (in seconds) from the
// histogram by linear interpolation inside the covering bucket,
// clamped to the observed maximum (interpolating to a bucket's upper
// bound can otherwise overshoot what was actually seen). The overflow
// bucket reports the observed maximum.
func (st *endpointStats) quantile(q float64) float64 {
	if st.count == 0 {
		return 0
	}
	target := q * float64(st.count)
	var cum float64
	for i, n := range st.buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= target {
			if i >= len(latencyBuckets) {
				return st.max
			}
			lo := 0.0
			if i > 0 {
				lo = latencyBuckets[i-1]
			}
			frac := (target - cum) / float64(n)
			if v := lo + frac*(latencyBuckets[i]-lo); v < st.max {
				return v
			}
			return st.max
		}
		cum += float64(n)
	}
	return st.max
}
