// Package admission protects the gateway from overload. Three mechanisms
// compose, all optional:
//
//   - Per-client token buckets cap each client's sustained request rate
//     (Config.Rate, Config.Burst). Clients identify themselves with an
//     X-Client-ID header; anonymous clients share a bucket per remote host.
//   - A bounded admission queue caps concurrency: at most MaxInFlight
//     requests execute at once, at most MaxQueue more wait, and everything
//     beyond that is shed immediately.
//   - A per-request deadline (Config.Deadline) bounds each admitted
//     request's context; the gateway propagates it through the federation
//     into the source servers.
//
// Shed requests receive HTTP 429 with a Retry-After header so well-behaved
// clients back off instead of hammering a saturated gateway; the metrics
// distinguish rate-limit sheds from queue-full sheds.
package admission

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dits/internal/metrics"
	"dits/internal/obs"
)

// errShed marks an admission.wait span whose request was shed.
var errShed = errors.New("shed")

// Config tunes the admission controller. The zero value admits everything
// (no rate limit, no concurrency bound, no deadline).
type Config struct {
	// Rate is each client's sustained budget in requests/second;
	// 0 or less disables per-client rate limiting.
	Rate float64
	// Burst is the bucket capacity — how many requests a client may issue
	// back-to-back after idling. Defaults to ceil(Rate), at least 1.
	Burst int
	// MaxInFlight bounds concurrently executing requests; 0 or less means
	// unbounded.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are shed. Only meaningful with MaxInFlight > 0.
	MaxQueue int
	// Deadline bounds each admitted request's context; 0 means none.
	Deadline time.Duration
}

// bucket is one client's token bucket, lazily refilled on access.
type bucket struct {
	tokens float64
	last   time.Time
}

// pruneEvery bounds how often the bucket map is swept for idle clients.
const pruneEvery = time.Minute

// Controller applies a Config to requests. Use New; the zero value is not
// ready. Safe for concurrent use.
type Controller struct {
	cfg Config
	sem chan struct{} // nil when MaxInFlight <= 0

	mu        sync.Mutex
	buckets   map[string]*bucket
	lastPrune time.Time
	now       func() time.Time // test hook

	admitted  metrics.Counter
	shed      metrics.CounterVec // by reason: rate | queue
	deadlines metrics.Counter    // admitted requests that exceeded Deadline
	inFlight  metrics.Gauge
	queued    metrics.Gauge
}

// New creates a controller for the config.
func New(cfg Config) *Controller {
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(math.Max(1, math.Ceil(cfg.Rate)))
	}
	c := &Controller{
		cfg:     cfg,
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
	if cfg.MaxInFlight > 0 {
		c.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	return c
}

// RecordDeadlineExceeded counts one admitted request that ran out of its
// deadline; the gateway calls it when mapping the failure to HTTP 504.
func (c *Controller) RecordDeadlineExceeded() { c.deadlines.Inc() }

// Stats is a snapshot of the controller's counters.
type Stats struct {
	Admitted         int64   `json:"admitted"`
	ShedRate         int64   `json:"shedRate"`
	ShedQueue        int64   `json:"shedQueue"`
	DeadlineExceeded int64   `json:"deadlineExceeded"`
	InFlight         int64   `json:"inFlight"`
	Queued           int64   `json:"queued"`
	TrackedClients   int     `json:"trackedClients"`
	MaxInFlight      int     `json:"maxInFlight"`
	MaxQueue         int     `json:"maxQueue"`
	RatePerSec       float64 `json:"ratePerSec"`
	Burst            int     `json:"burst"`
	DeadlineMs       int64   `json:"deadlineMs"`
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	shed := c.shed.Snapshot()
	c.mu.Lock()
	tracked := len(c.buckets)
	c.mu.Unlock()
	return Stats{
		Admitted:         c.admitted.Value(),
		ShedRate:         shed["rate"],
		ShedQueue:        shed["queue"],
		DeadlineExceeded: c.deadlines.Value(),
		InFlight:         c.inFlight.Value(),
		Queued:           c.queued.Value(),
		TrackedClients:   tracked,
		MaxInFlight:      c.cfg.MaxInFlight,
		MaxQueue:         c.cfg.MaxQueue,
		RatePerSec:       c.cfg.Rate,
		Burst:            c.cfg.Burst,
		DeadlineMs:       c.cfg.Deadline.Milliseconds(),
	}
}

// Register exposes the admission counters on a metrics registry under the
// dits_admission_* names.
func (c *Controller) Register(r *metrics.Registry) {
	r.RegisterCounter("dits_admission_admitted_total", "Requests admitted", &c.admitted)
	r.RegisterCounterVec("dits_admission_shed_total", "Requests shed, by reason", "reason", &c.shed)
	r.RegisterCounter("dits_admission_deadline_exceeded_total",
		"Admitted requests that exceeded the request deadline", &c.deadlines)
	r.RegisterGauge("dits_admission_in_flight", "Requests currently executing", &c.inFlight)
	r.RegisterGauge("dits_admission_queued", "Requests waiting for an in-flight slot", &c.queued)
}

// allow consumes one token from the client's bucket, reporting whether the
// request may proceed and, when it may not, how long until a token refills.
func (c *Controller) allow(client string) (bool, time.Duration) {
	if c.cfg.Rate <= 0 {
		return true, 0
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	b := c.buckets[client]
	if b == nil {
		b = &bucket{tokens: float64(c.cfg.Burst)}
		c.buckets[client] = b
	} else {
		b.tokens = math.Min(float64(c.cfg.Burst), b.tokens+now.Sub(b.last).Seconds()*c.cfg.Rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / c.cfg.Rate * float64(time.Second))
}

// pruneLocked drops buckets idle long enough to have fully refilled —
// indistinguishable from fresh ones — so the map tracks active clients
// only. The caller holds c.mu.
func (c *Controller) pruneLocked(now time.Time) {
	if now.Sub(c.lastPrune) < pruneEvery {
		return
	}
	c.lastPrune = now
	full := time.Duration(float64(c.cfg.Burst) / c.cfg.Rate * float64(time.Second))
	for id, b := range c.buckets {
		if now.Sub(b.last) > full {
			delete(c.buckets, id)
		}
	}
}

// Admit decides one request. On success it returns a release function the
// caller MUST call when the request finishes. On shedding it returns
// ok=false with the Retry-After hint and records the shed. ctx bounds the
// time spent waiting in the admission queue.
func (c *Controller) Admit(ctx context.Context, client string) (release func(), retryAfter time.Duration, ok bool) {
	if ok, retry := c.allow(client); !ok {
		c.shed.With("rate").Inc()
		return nil, retry, false
	}
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}: // free slot, no queueing
		default:
			if int(c.queued.Value()) >= c.cfg.MaxQueue {
				c.shed.With("queue").Inc()
				return nil, time.Second, false
			}
			c.queued.Add(1)
			select {
			case c.sem <- struct{}{}:
				c.queued.Add(-1)
			case <-ctx.Done():
				c.queued.Add(-1)
				c.shed.With("queue").Inc()
				return nil, time.Second, false
			}
		}
	}
	c.admitted.Inc()
	c.inFlight.Add(1)
	return func() {
		c.inFlight.Add(-1)
		if c.sem != nil {
			<-c.sem
		}
	}, 0, true
}

// ClientID identifies the requester: the X-Client-ID header when set, else
// the remote host (all anonymous requests from one address share a bucket).
func ClientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Middleware applies admission control and the request deadline to an HTTP
// handler. Shed requests get 429 with a Retry-After header (integer
// seconds, at least 1) and a JSON error body. On a traced request the
// time spent in Admit — token check plus any queue wait — is recorded as
// an "admission.wait" span, so a slow trace distinguishes queueing from
// execution.
func (c *Controller) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, sp := obs.StartSpan(r.Context(), "admission.wait")
		release, retryAfter, ok := c.Admit(r.Context(), ClientID(r))
		if !ok {
			sp.EndErr(errShed)
		} else {
			sp.End()
		}
		if !ok {
			secs := int(math.Ceil(retryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded, retry later"}`))
			return
		}
		defer release()
		if d := c.cfg.Deadline; d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}
