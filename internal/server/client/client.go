package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"falcon/internal/server"
)

// Client submits transactions to a `falcon serve` endpoint with retries. The
// idempotency key is fixed per logical request and reused across retries, so
// a retry after a timeout or crash is answered from the server's idempotency
// table instead of re-executing.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Backoff paces retries; nil means NewBackoff defaults with seed 1.
	Backoff *Backoff
	// MaxAttempts bounds tries per request (0 means 5).
	MaxAttempts int
	// DeadlineMs is sent as X-Deadline-Ms when > 0.
	DeadlineMs int
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)

	// Retries counts extra attempts made; Sheds counts 429/503 responses
	// observed. Single-goroutine counters for the load generator.
	Retries uint64
	Sheds   uint64
}

// retryable reports whether a response status warrants another attempt.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfter extracts the server's wait hint, preferring the
// millisecond-precision extension header.
func retryAfter(h http.Header) (time.Duration, bool) {
	if v := h.Get("Retry-After-Ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond, true
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if s, err := strconv.ParseInt(v, 10, 64); err == nil && s >= 0 {
			return time.Duration(s) * time.Second, true
		}
	}
	return 0, false
}

// Do submits one transaction under the given idempotency key, retrying
// sheds, timeouts, and transport errors with capped jittered backoff. The
// returned response may be a replay (resp.Replayed) — by the idempotency
// contract its digest equals the original execution's.
func (c *Client) Do(idemKey uint64, req *server.TxnRequest) (*server.TxnResponse, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	bo := c.Backoff
	if bo == nil {
		bo = NewBackoff(0, 0, 1)
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.Retries++
		}
		resp, status, hdr, err := c.once(hc, idemKey, body)
		switch {
		case err != nil:
			lastErr = err // transport error: retry
		case status == http.StatusOK:
			return resp, nil
		case retryable(status):
			c.Sheds++
			lastErr = fmt.Errorf("status %d: %s", status, resp.Error)
		default:
			// Protocol or application error: retrying cannot help.
			return resp, fmt.Errorf("status %d: %s", status, resp.Error)
		}
		if attempt == attempts-1 {
			break
		}
		wait := bo.Delay(attempt)
		if hinted, ok := retryAfter(hdr); ok && hinted > wait {
			// The server knows its drain time; never retry sooner than its
			// hint, but keep our jitter on top so hinted clients spread out.
			wait = hinted + bo.Delay(attempt)/2
		}
		sleep(wait)
	}
	return nil, fmt.Errorf("client: %d attempts exhausted: %w", attempts, lastErr)
}

func (c *Client) once(hc *http.Client, idemKey uint64, body []byte) (*server.TxnResponse, int, http.Header, error) {
	hr, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/txn", bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Idempotency-Key", strconv.FormatUint(idemKey, 10))
	if c.DeadlineMs > 0 {
		hr.Header.Set("X-Deadline-Ms", strconv.Itoa(c.DeadlineMs))
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, resp.StatusCode, resp.Header, err
	}
	var tr server.TxnResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, resp.StatusCode, resp.Header, fmt.Errorf("bad response body: %w", err)
	}
	return &tr, resp.StatusCode, resp.Header, nil
}
