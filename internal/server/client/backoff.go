// Package client is the retrying `falcon serve` client: capped exponential
// backoff with seeded deterministic jitter, idempotency-key reuse across
// retries (the server's idempotency table turns retries into replays), and
// Retry-After honoring so a shed burst does not reconverge as a
// synchronized herd.
package client

import "time"

// Backoff computes retry delays: capped exponential growth with
// deterministic jitter drawn from a seeded splitmix64 stream. Two Backoffs
// with the same seed produce identical delay sequences (testable,
// reproducible load scenarios); different seeds decorrelate, which is what
// breaks up a retry herd after a synchronized shed.
type Backoff struct {
	// Base is the attempt-0 delay; Cap bounds the exponential growth.
	Base, Cap time.Duration
	state     uint64
}

// NewBackoff seeds a backoff policy. base and cap default to 10ms and 2s.
func NewBackoff(base, cap time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	return &Backoff{Base: base, Cap: cap, state: seed}
}

// splitmix64 advances the jitter stream.
func (b *Backoff) next() uint64 {
	b.state += 0x9e3779b97f4a7c15
	z := b.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Delay returns the wait before retry `attempt` (0-based): min(Cap,
// Base<<attempt) scaled by a jitter factor in [0.5, 1.0). The full-jitter
// halving keeps the expected delay growing exponentially while spreading
// simultaneous retriers across half the window.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	// jitter in [0.5, 1.0): high bit fixed, rest uniform.
	j := 0.5 + 0.5*float64(b.next()>>11)/float64(1<<53)
	return time.Duration(float64(d) * j)
}
