package shard

import (
	"sync"
	"time"
)

// BreakerState is the classic three-state circuit-breaker automaton a
// coordinator wraps around each shard replica. Closed replicas take
// traffic; open replicas are skipped until a jittered backoff elapses;
// half-open replicas admit exactly one trial request whose outcome
// decides between closing (recovered) and re-opening (still sick) with
// a doubled backoff.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes one replica's circuit breaker. The zero value of
// any field selects the documented default.
type BreakerConfig struct {
	// ConsecutiveFailures trips closed→open after this many failures
	// in a row. 0 selects 5; negative disables the consecutive trip.
	ConsecutiveFailures int
	// Window is the sliding outcome-window length feeding the
	// rate-based trip (the passive health signal: every transient
	// error or timeout lands here). 0 selects 32.
	Window int
	// FailureRate trips closed→open when the windowed failure rate
	// reaches it with at least MinSamples outcomes recorded — the
	// gray-failure trip: a replica answering 6 of every 10 calls
	// never fails 5 in a row but is still unfit for traffic.
	// 0 selects 0.5; negative disables the rate trip.
	FailureRate float64
	// MinSamples gates the rate trip so a single failure after idle
	// cannot trip a 100% "rate". 0 selects 10.
	MinSamples int
	// Backoff is the open-state dwell before the first half-open
	// trial; each failed trial doubles it up to BackoffMax. 0 selects
	// 500ms.
	Backoff time.Duration
	// BackoffMax caps the exponential backoff. 0 selects 30s.
	BackoffMax time.Duration
	// Jitter spreads each computed backoff uniformly over
	// [1-Jitter/2, 1+Jitter/2) so replicas of a recovering shard are
	// not re-probed in lockstep. 0 selects 0.5; negative disables.
	Jitter float64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures == 0 {
		c.ConsecutiveFailures = 5
	}
	if c.Window == 0 {
		c.Window = 32
	}
	if c.FailureRate == 0 {
		c.FailureRate = 0.5
	}
	if c.MinSamples == 0 {
		c.MinSamples = 10
	}
	if c.Backoff == 0 {
		c.Backoff = 500 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 30 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	return c
}

// breaker is one replica's health automaton. All methods are safe for
// concurrent use; the clock and RNG are injected so the state machine
// is testable without sleeping.
type breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig
	now func() time.Time
	rnd func() uint64

	state       BreakerState
	consecFails int
	// Sliding outcome ring: true marks a failure. fails tracks the
	// failure count inside the ring so the rate check is O(1).
	ring    []bool
	ringIdx int
	ringLen int
	fails   int

	backoff  time.Duration // next open-state dwell
	reopenAt time.Time     // when half-open trials may begin
	trial    bool          // a half-open trial is in flight

	// quarantined marks a replica whose engine state may have
	// diverged from its group (a mutation failed on it, or it refused
	// one a sibling applied). Quarantine is terminal for this Remote: the
	// replica never serves again until a reload rebuilds the
	// coordinator state from a fresh poll.
	quarantined    bool
	quarantineWhy  string
	lastTransition time.Time
}

func newBreaker(cfg BreakerConfig, now func() time.Time, rnd func() uint64) *breaker {
	cfg = cfg.withDefaults()
	b := &breaker{
		cfg:  cfg,
		now:  now,
		rnd:  rnd,
		ring: make([]bool, cfg.Window),
	}
	b.backoff = cfg.Backoff
	return b
}

// Allow reports whether a request may be sent to this replica right
// now. probe is true when the grant is a half-open trial: the caller
// MUST report the outcome (OnSuccess/OnFailure) or release the slot
// (Release), or the replica is stuck half-open forever.
func (b *breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined {
		return false, false
	}
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Before(b.reopenAt) {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.lastTransition = b.now()
		b.trial = true
		return true, true
	default: // half-open
		if b.trial {
			return false, false
		}
		b.trial = true
		return true, true
	}
}

// OnSuccess records a successful call. A half-open trial success
// closes the breaker and resets the backoff ladder.
func (b *breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.lastTransition = b.now()
		b.trial = false
		b.reset()
	case BreakerClosed:
		b.consecFails = 0
		b.push(false)
	}
}

// OnFailure records a transient failure (error or timeout). A closed
// breaker trips when either passive signal fires; a half-open trial
// failure re-opens with doubled backoff.
func (b *breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.trial = false
		b.backoff = min(b.backoff*2, b.cfg.BackoffMax)
		b.open()
	case BreakerClosed:
		b.consecFails++
		b.push(true)
		consec := b.cfg.ConsecutiveFailures > 0 && b.consecFails >= b.cfg.ConsecutiveFailures
		rate := b.cfg.FailureRate > 0 && b.ringLen >= b.cfg.MinSamples &&
			float64(b.fails) >= b.cfg.FailureRate*float64(b.ringLen)
		if consec || rate {
			b.backoff = b.cfg.Backoff
			b.open()
		}
	}
}

// Trip opens the breaker immediately with the base backoff — used for
// replicas already unreachable at construction time, whose re-entry
// the prober owns from the start.
func (b *breaker) Trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined || b.state == BreakerOpen {
		return
	}
	b.backoff = b.cfg.Backoff
	b.open()
}

// Release frees a half-open trial slot without recording an outcome —
// for callers whose parent request was cancelled before the replica
// answered, where neither success nor failure would be honest.
func (b *breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.trial = false
	}
}

// ForceOpen quarantines the replica: open forever (for this Remote)
// with the reason recorded for diagnostics. Used when a mutation
// failed or diverged on it, so its engine state can no longer be
// trusted to match its group.
func (b *breaker) ForceOpen(why string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.quarantined {
		return
	}
	b.quarantined = true
	b.quarantineWhy = why
	b.state = BreakerOpen
	b.lastTransition = b.now()
	b.trial = false
}

// Snapshot reads the externally visible state in one critical section.
func (b *breaker) Snapshot() (state BreakerState, quarantined bool, failRate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ringLen > 0 {
		failRate = float64(b.fails) / float64(b.ringLen)
	}
	return b.state, b.quarantined, failRate
}

// open transitions to the open state with a jittered dwell of the
// current backoff. Callers hold b.mu.
func (b *breaker) open() {
	b.state = BreakerOpen
	b.lastTransition = b.now()
	b.trial = false
	b.reopenAt = b.now().Add(jitterDuration(b.backoff, b.cfg.Jitter, b.rnd))
}

// reset clears the passive-health window and backoff ladder after a
// recovery. Callers hold b.mu.
func (b *breaker) reset() {
	b.consecFails = 0
	b.ringIdx, b.ringLen, b.fails = 0, 0, 0
	b.backoff = b.cfg.Backoff
}

// push records one outcome into the sliding ring. Callers hold b.mu.
func (b *breaker) push(failed bool) {
	if b.ringLen == len(b.ring) {
		if b.ring[b.ringIdx] {
			b.fails--
		}
	} else {
		b.ringLen++
	}
	b.ring[b.ringIdx] = failed
	if failed {
		b.fails++
	}
	b.ringIdx = (b.ringIdx + 1) % len(b.ring)
}

// jitterDuration spreads d uniformly over [1-j/2, 1+j/2) so that
// synchronized failures do not produce synchronized retries.
func jitterDuration(d time.Duration, j float64, rnd func() uint64) time.Duration {
	if j <= 0 || d <= 0 {
		return d
	}
	u := float64(rnd()>>11) / (1 << 53) // uniform [0,1)
	scaled := float64(d) * (1 - j/2 + j*u)
	if scaled < 0 {
		return 0
	}
	return time.Duration(scaled)
}
