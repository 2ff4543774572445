package crowdclient

import (
	"errors"
	"sync"
	"time"

	"crowdselect/internal/clock"
)

// ErrCircuitOpen is returned without touching the network while the
// client's circuit breaker is open: the server has been unreachable at
// the transport level for BreakerThreshold consecutive attempts, and
// breakerCooldown since the last failure has not yet elapsed. Callers
// branch with errors.Is.
var ErrCircuitOpen = errors.New("crowdclient: circuit breaker open")

// breakerState is the classic three-state machine.
type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// breaker is a closed/open/half-open circuit breaker over transport
// errors only. HTTP responses of any status are successes here: a
// server answering 503s is alive and shedding, and hammering it less
// is the retry policy's job, not the breaker's — the breaker exists
// for the case where nothing answers at all (blackhole, partition,
// dead process). Safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	threshold int
	clock     clock.Clock

	state    breakerState
	failures int       // consecutive transport failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // half-open: the single trial is in flight

	opens     int64 // transitions into open
	fastFails int64 // requests refused without touching the network
}

// breakerCooldown is how long the breaker stays open before one
// half-open trial request is let through. The trial's outcome closes
// the breaker or re-opens it for another cooldown.
const breakerCooldown = time.Second

// allow gates one attempt. While open it fails fast until the cooldown
// elapses, then admits exactly one half-open trial; concurrent
// requests during the trial keep failing fast.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkClosed:
		return nil
	case bkOpen:
		if b.clock.Now().Sub(b.openedAt) < breakerCooldown {
			b.fastFails++
			return ErrCircuitOpen
		}
		b.state = bkHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			b.fastFails++
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// record reports the outcome of an admitted attempt: success is "the
// server answered" (any HTTP status), failure is a transport error.
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == bkHalfOpen {
		b.probing = false
		if success {
			b.state = bkClosed
			b.failures = 0
			return
		}
		b.state = bkOpen
		b.openedAt = b.clock.Now()
		b.opens++
		return
	}
	if success {
		b.failures = 0
		return
	}
	b.failures++
	if b.state == bkClosed && b.failures >= b.threshold {
		b.state = bkOpen
		b.openedAt = b.clock.Now()
		b.opens++
	}
}

// neutral reports an attempt that proved nothing about the server — a
// context cancelled by the caller. It releases a half-open trial slot
// without moving the state machine.
func (b *breaker) neutral() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// snapshot returns (state, opens, fastFails) for ClientStats.
func (b *breaker) snapshot() (string, int64, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.opens, b.fastFails
}

// retryBudget is a token bucket bounding retries across the whole
// client: N concurrent callers against a struggling server otherwise
// multiply its load by the per-request retry factor exactly when it
// can least afford it. Each retry spends a token, each success refunds
// one (capped), and an empty bucket turns every request into
// first-attempt-only until the server starts answering again.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	limit  float64
}

// take spends one token; false means the budget is exhausted.
func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund returns one token on a successful request, up to the cap.
func (b *retryBudget) refund() {
	b.mu.Lock()
	if b.tokens < b.limit {
		b.tokens++
	}
	b.mu.Unlock()
}

// level reports the current token count.
func (b *retryBudget) level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
