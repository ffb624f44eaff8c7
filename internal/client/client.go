// Package client is the resilient typed Go client for the KTG query
// service (POST /v1/query, POST /v1/diverse). It is the counterpart of
// the server-side resilience machinery: where internal/server rejects
// overload with fast 429s + Retry-After, degrades to greedy under
// pressure, and drains gracefully with 503s, this client turns those
// signals into correct retry behavior instead of treating one failed
// round-trip as fatal.
//
// Per logical call it applies, in order: a circuit breaker (fail fast
// while the server is known-bad, recover via a single probe request), a
// bounded number of attempts each under its own timeout, capped
// exponential backoff with full jitter between attempts, honoring of
// Retry-After headers (both delta-seconds and HTTP-date forms), and a
// retry budget so a fleet of clients cannot amplify an outage with
// synchronized retry storms. Optional hedging launches a second
// attempt for slow (idempotent) queries and takes whichever answer
// lands first. All attempts of one call share a stable X-Request-Id,
// so server-side logs, the flight recorder, and response caching line
// up across retries.
//
// Failures are surfaced as typed errors — ErrOverloaded (429),
// ErrUnavailable (5xx), ErrCircuitOpen, ErrRetryBudgetExhausted, and
// *APIError for structured 4xx rejections — and degraded or partial
// results are visible on the Response rather than silently accepted.
// Everything is counted under ktg_client_* on the shared obs registry.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ktg"
	"ktg/internal/obs"
	"ktg/internal/server"
)

// Sentinel errors. APIError.Unwrap maps HTTP statuses onto the first
// two, so errors.Is(err, ErrOverloaded) works on wrapped errors.
var (
	// ErrOverloaded reports a 429: the server's admission queue was full
	// (or chaos injected one). Retried automatically; returned only once
	// attempts or budget ran out.
	ErrOverloaded = errors.New("client: server overloaded (429)")
	// ErrUnavailable reports a 5xx: the server is draining, panicked, or
	// chaos-injected an internal error.
	ErrUnavailable = errors.New("client: server unavailable (5xx)")
	// ErrCircuitOpen reports that the circuit breaker is open and the
	// call was rejected without any network attempt.
	ErrCircuitOpen = errors.New("client: circuit breaker open")
	// ErrRetryBudgetExhausted reports that a retry was warranted but the
	// client-wide retry budget was empty.
	ErrRetryBudgetExhausted = errors.New("client: retry budget exhausted")
)

// APIError is a structured error response from the server: the
// {"error": {"code", "message"}} body with its non-200 status.
type APIError struct {
	server.APIError
	// RetryAfter is the parsed Retry-After header (0 when absent or
	// unparseable; HasRetryAfter distinguishes "0s" from "none").
	RetryAfter    time.Duration
	HasRetryAfter bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d %s: %s", e.Status, e.Code, e.Message)
}

// Unwrap maps the status class onto the retryable sentinels.
func (e *APIError) Unwrap() error {
	switch {
	case e.Status == http.StatusTooManyRequests:
		return ErrOverloaded
	case e.Status >= 500:
		return ErrUnavailable
	}
	return nil
}

// retryable reports whether another attempt could change the outcome:
// 429 and 5xx are transient, other 4xx are the caller's bug.
func (e *APIError) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Request is the JSON body of POST /v1/query, /v1/diverse, and
// /v1/query/partial.
type Request = server.QueryRequest

// Group is one result group on the wire.
type Group = ktg.Group

// Call is the client's record of one logical call, filled after the
// winning attempt; none of it is on the wire. RequestID echoes the
// X-Request-Id the winning attempt carried (stable across every attempt
// of this call). TraceID is the W3C trace the call ran under (every
// attempt propagated it via traceparent, so server-side spans join it).
// Attempts counts HTTP round-trips this call made, hedges included;
// Hedged reports the answer came from a hedge attempt.
type Call struct {
	RequestID string
	TraceID   string
	Attempts  int
	Hedged    bool
}

func (c *Call) setCallMeta(reqID, traceID string, attempts int, hedged bool) {
	c.RequestID, c.TraceID, c.Attempts, c.Hedged = reqID, traceID, attempts, hedged
}

// Response is a successful query answer: the server's body plus the
// call record. Degraded/Partial surface the server's under-pressure
// compromises — callers that need the exact answer should check them
// rather than assume. From a coordinator, ShardsFailed > 0 reports
// shard loss.
type Response struct {
	server.QueryResponse
	Call `json:"-"`
}

// wireBody is implemented by every response type the retry pipeline can
// decode (Response, PartialResponse, MutationResponse), so
// do/attempt/roundTrip run one shared breaker/backoff/hedging pipeline
// for all endpoints.
type wireBody interface {
	// setCallMeta fills the call record after the winning attempt.
	setCallMeta(reqID, traceID string, attempts int, hedged bool)
	// outcomeFlags reports the degraded/partial markers for counting.
	outcomeFlags() (degraded, partial bool)
}

func (r *Response) outcomeFlags() (degraded, partial bool) {
	return r.Degraded, r.Partial
}

// Config tunes a Client. The zero value is usable: New applies the
// defaults documented per field.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient issues the attempts; nil uses a dedicated client with
	// no global timeout (per-attempt contexts bound each round-trip).
	HTTPClient *http.Client
	// MaxAttempts bounds round-trips per logical call, hedges excluded
	// (default 4).
	MaxAttempts int
	// AttemptTimeout bounds each attempt (default 10s).
	AttemptTimeout time.Duration
	// BackoffBase/BackoffCap shape the exponential backoff: before retry
	// n the client sleeps a full-jitter duration drawn uniformly from
	// [0, min(BackoffCap, BackoffBase·2ⁿ)] (defaults 100ms / 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxRetryAfter caps how long a server-sent Retry-After is honored
	// (default 30s) so a bogus header cannot park the client.
	MaxRetryAfter time.Duration
	// RetryBudget caps outstanding retry tokens: each retry spends one,
	// each successful call refills RetryRefill tokens up to the cap
	// (defaults 10 / 0.5; negative RetryBudget disables the budget).
	RetryBudget float64
	RetryRefill float64
	// HedgeDelay, when positive, launches a second identical attempt if
	// the first has not answered within the delay and takes whichever
	// finishes first. Queries are idempotent reads (and the stable
	// X-Request-Id lets the server's cache/singleflight deduplicate), so
	// hedging is safe; it is off by default because it spends server
	// capacity to buy tail latency.
	HedgeDelay time.Duration
	// Breaker tunes the circuit breaker; see BreakerConfig.
	Breaker BreakerConfig
	// Logger receives retry/breaker warnings; nil stays silent.
	Logger *slog.Logger
	// Seed makes jitter deterministic for tests; 0 seeds from the clock.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 2 * time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 10
	}
	if c.RetryRefill <= 0 {
		c.RetryRefill = 0.5
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// Stats is a snapshot of one client's lifetime counters (the same
// story the process-wide ktg_client_* metrics tell, but scoped to this
// instance so load drivers can report per-run numbers).
type Stats struct {
	Calls             int64 // logical calls started
	Errors            int64 // logical calls that returned an error
	Attempts          int64 // HTTP round-trips, hedges included
	Retries           int64 // attempts beyond the first (hedges excluded)
	Hedges            int64 // hedge attempts launched
	HedgeWins         int64 // calls answered by the hedge attempt
	BreakerTrips      int64 // closed/half-open → open transitions
	BreakerRejects    int64 // calls rejected while the breaker was open
	RetryAfterHonored int64 // retries whose delay came from Retry-After
	BudgetExhausted   int64 // retries denied by the retry budget
	Degraded          int64 // responses marked "degraded": true
	Partial           int64 // responses marked "partial": true
	EpochSkewRetries  int64 // retries caused by shard_epoch_skew rejections
}

type statsCells struct {
	calls, errs, attempts, retries, hedges, hedgeWins atomic.Int64
	breakerTrips, breakerRejects, retryAfterHonored   atomic.Int64
	budgetExhausted, degraded, partial, epochSkew     atomic.Int64
}

func statsFrom(cells *statsCells) Stats {
	return Stats{
		Calls:             cells.calls.Load(),
		Errors:            cells.errs.Load(),
		Attempts:          cells.attempts.Load(),
		Retries:           cells.retries.Load(),
		Hedges:            cells.hedges.Load(),
		HedgeWins:         cells.hedgeWins.Load(),
		BreakerTrips:      cells.breakerTrips.Load(),
		BreakerRejects:    cells.breakerRejects.Load(),
		RetryAfterHonored: cells.retryAfterHonored.Load(),
		BudgetExhausted:   cells.budgetExhausted.Load(),
		Degraded:          cells.degraded.Load(),
		Partial:           cells.partial.Load(),
		EpochSkewRetries:  cells.epochSkew.Load(),
	}
}

// Client is a resilient KTG query-service client. It is safe for
// concurrent use; the breaker and retry budget are shared across all
// calls on the same instance (that sharing is the point: one bad
// backend trips one breaker).
type Client struct {
	cfg    Config
	base   string
	hc     *http.Client
	br     *breaker
	budget *retryBudget
	logger *slog.Logger

	mu  sync.Mutex
	rng *rand.Rand

	st statsCells // this instance's counters (Stats reads these)
}

// New builds a Client for the given base URL ("http://host:port").
func New(cfg Config) (*Client, error) {
	if strings.TrimSpace(cfg.BaseURL) == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:    cfg,
		base:   strings.TrimRight(cfg.BaseURL, "/"),
		hc:     cfg.HTTPClient,
		budget: newRetryBudget(cfg.RetryBudget, cfg.RetryRefill),
		logger: cfg.Logger,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	c.br = newBreaker(cfg.Breaker, func() {
		mBreakerTrips.Inc()
		c.st.breakerTrips.Add(1)
		if c.logger != nil {
			c.logger.Warn("circuit breaker opened", "cooldown", c.br.cooldown)
		}
	}, func(state int) { mBreakerState.Set(int64(state)) })
	return c, nil
}

// Stats returns a snapshot of this client's counters.
func (c *Client) Stats() Stats {
	return statsFrom(&c.st)
}

// Target returns the normalized base URL this client talks to.
func (c *Client) Target() string {
	return c.base
}

// Query runs one KTG search (POST /v1/query) with the full retry
// pipeline.
func (c *Client) Query(ctx context.Context, req *Request) (*Response, error) {
	out, err := c.do(ctx, "/v1/query", req, true, func() wireBody { return new(Response) })
	if err != nil {
		return nil, err
	}
	return out.(*Response), nil
}

// Diverse runs one DKTG diverse search (POST /v1/diverse).
func (c *Client) Diverse(ctx context.Context, req *Request) (*Response, error) {
	out, err := c.do(ctx, "/v1/diverse", req, true, func() wireBody { return new(Response) })
	if err != nil {
		return nil, err
	}
	return out.(*Response), nil
}

// Health probes GET /healthz once (no retries — callers poll it).
func (c *Client) Health(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	res, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: healthz: %w", err)
	}
	defer res.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(res.Body, 1<<16))
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz returned %d", res.StatusCode)
	}
	return nil
}

// do is the shared logical-call pipeline: breaker gate → attempt loop
// with per-attempt timeout and optional hedging → classify → backoff /
// Retry-After pacing → typed error or response. hedgeable gates the
// hedging stage per endpoint: searches are idempotent reads and may
// hedge, mutations must not (a hedge's losing leg still applies and
// would publish a spurious extra epoch).
func (c *Client) do(ctx context.Context, path string, payload any, hedgeable bool, newBody func() wireBody) (resp wireBody, err error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	mCalls.Inc()
	c.st.calls.Add(1)
	start := time.Now()
	// One request ID for every attempt of this call: the server's
	// singleflight/cache already deduplicates identical retried queries
	// by content, and a stable ID stitches all attempts into one story
	// in server logs and /debug/requests.
	reqID := obs.NewRequestID()
	// The call span is the client-side trace root (or a child, when the
	// caller's ctx already carries a span — ktgquery's run root). Every
	// attempt hangs off it as a sibling child span, hedges included.
	ctx, callSpan := obs.StartSpan(ctx, "client "+path)
	callSpan.SetAttr("request_id", reqID)
	defer func() {
		if err != nil {
			callSpan.SetError(err.Error())
		}
		callSpan.End()
	}()

	var lastErr error
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, c.fail(err)
		}
		probe, err := c.br.allow(time.Now())
		if err != nil {
			mBreakerRejects.Inc()
			c.st.breakerRejects.Add(1)
			if lastErr != nil {
				return nil, c.fail(fmt.Errorf("%w (last attempt error: %v)", err, lastErr))
			}
			return nil, c.fail(err)
		}
		attempts++
		resp, hedged, aerr := c.attempt(ctx, path, body, reqID, hedgeable, newBody)
		c.br.record(breakerSuccess(aerr), probe, time.Now())
		if aerr == nil {
			c.budget.credit()
			resp.setCallMeta(reqID, callSpan.TraceID(), attempts, hedged)
			degraded, partial := resp.outcomeFlags()
			if degraded {
				mDegraded.Inc()
				c.st.degraded.Add(1)
			}
			if partial {
				mPartial.Inc()
				c.st.partial.Add(1)
			}
			mLatency.Observe(time.Since(start).Nanoseconds())
			return resp, nil
		}
		lastErr = aerr

		if !retryableError(aerr) {
			return nil, c.fail(aerr)
		}
		if ctx.Err() != nil {
			return nil, c.fail(ctx.Err())
		}
		if attempts >= c.cfg.MaxAttempts {
			return nil, c.fail(fmt.Errorf("client: %s failed after %d attempts: %w", path, attempts, aerr))
		}
		if !c.budget.spend() {
			mBudgetExhausted.Inc()
			c.st.budgetExhausted.Add(1)
			return nil, c.fail(fmt.Errorf("%w (last attempt error: %v)", ErrRetryBudgetExhausted, aerr))
		}

		delay := c.backoff(attempts - 1)
		var apiErr *APIError
		if errors.As(aerr, &apiErr) && apiErr.HasRetryAfter && apiErr.RetryAfter > delay {
			delay = apiErr.RetryAfter
			if delay > c.cfg.MaxRetryAfter {
				delay = c.cfg.MaxRetryAfter
			}
			mRetryAfterHonored.Inc()
			c.st.retryAfterHonored.Add(1)
		}
		mRetries.Inc()
		c.st.retries.Add(1)
		if errors.As(aerr, &apiErr) && apiErr.Code == "shard_epoch_skew" {
			// The coordinator caught its shards mid-mutation on different
			// epochs; the retry usually lands after they converge.
			mEpochSkewRetries.Inc()
			c.st.epochSkew.Add(1)
		}
		if c.logger != nil {
			c.logger.Debug("retrying query", "path", path, "attempt", attempts,
				"delay", delay, "request_id", reqID, "err", aerr)
		}
		if err := sleep(ctx, delay); err != nil {
			return nil, c.fail(err)
		}
	}
}

// fail counts a terminal call error and passes it through.
func (c *Client) fail(err error) error {
	mErrors.Inc()
	c.st.errs.Add(1)
	return err
}

// breakerSuccess classifies an attempt outcome for the breaker: any
// response proves the server alive — including 4xx and 429 (overload
// is handled by backoff + Retry-After, not by tripping the breaker).
// Transport failures and 5xx count against it.
func breakerSuccess(err error) bool {
	if err == nil {
		return true
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status < 500
	}
	return false
}

// retryableError reports whether another attempt is worthwhile:
// transport errors, truncated/garbled responses, timeouts, 429 and 5xx
// are; other structured 4xx are permanent.
func retryableError(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.retryable()
	}
	return true
}

// attempt performs one bounded attempt, hedged when configured and the
// endpoint allows it. The bool result reports whether a hedge produced
// the answer.
func (c *Client) attempt(ctx context.Context, path string, body []byte, reqID string, hedgeable bool, newBody func() wireBody) (wireBody, bool, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	if c.cfg.HedgeDelay <= 0 || !hedgeable {
		resp, err := c.roundTrip(actx, path, body, reqID, false, newBody)
		return resp, false, err
	}

	type outcome struct {
		resp  wireBody
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2) // buffered: the losing goroutine must not block
	run := func(hedge bool) {
		resp, err := c.roundTrip(actx, path, body, reqID, hedge, newBody)
		ch <- outcome{resp, err, hedge}
	}
	go run(false)
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	launched, received := 1, 0
	var firstErr error
	for {
		select {
		case o := <-ch:
			received++
			if o.err == nil {
				if o.hedge {
					mHedgeWins.Inc()
					c.st.hedgeWins.Add(1)
				}
				return o.resp, o.hedge, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if received == launched {
				// Every launched leg failed; report the first failure (the
				// primary's, unless only the hedge ran into it first).
				return nil, false, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				launched = 2
				mHedges.Inc()
				c.st.hedges.Add(1)
				go run(true)
			}
		}
	}
}

// roundTrip is one HTTP exchange: request out, body fully read,
// classified into a Response or a typed error. Each exchange is its own
// child span under the call span (retries and the hedge leg show up as
// siblings), and injects that span's identity via the W3C traceparent
// header so the server's spans join the same trace.
func (c *Client) roundTrip(ctx context.Context, path string, body []byte, reqID string, hedge bool, newBody func() wireBody) (_ wireBody, err error) {
	mAttempts.Inc()
	c.st.attempts.Add(1)
	ctx, span := obs.StartChild(ctx, "client.attempt")
	if hedge {
		span.SetAttr("hedge", "true")
	}
	defer func() {
		if err != nil {
			span.SetError(err.Error())
		}
		span.End()
	}()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", reqID)
	if sc := span.Context(); sc.Valid() {
		hreq.Header.Set("traceparent", obs.FormatTraceparent(sc))
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	defer hres.Body.Close()
	span.SetAttr("status", strconv.Itoa(hres.StatusCode))
	raw, err := io.ReadAll(io.LimitReader(hres.Body, maxResponseBytes))
	if err != nil {
		// Includes chaos-truncated bodies (unexpected EOF / reset): the
		// response cannot be trusted, retry it.
		return nil, fmt.Errorf("client: %s: reading response: %w", path, err)
	}
	if hres.StatusCode != http.StatusOK {
		return nil, apiErrorFrom(hres, raw)
	}
	out := newBody()
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("client: %s: malformed response body (truncated?): %w", path, err)
	}
	return out, nil
}

// maxResponseBytes bounds response bodies the client will buffer.
const maxResponseBytes = 8 << 20

// apiErrorFrom builds the typed error for a non-200 response,
// tolerating bodies that are not the structured error shape (chaos
// resets can garble them).
func apiErrorFrom(hres *http.Response, raw []byte) *APIError {
	aerr := &APIError{APIError: server.APIError{Status: hres.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(raw))}}
	var wire struct {
		Error server.APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &wire); err == nil && wire.Error.Code != "" {
		aerr.Code, aerr.Message = wire.Error.Code, wire.Error.Message
	}
	if ra, ok := parseRetryAfter(hres.Header.Get("Retry-After"), time.Now()); ok {
		aerr.RetryAfter, aerr.HasRetryAfter = ra, true
	}
	return aerr
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
