package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// soakLoad is the soaks' closed-loop load: four clients, each with its own
// seeded rand and X-Client-ID, send requests back to back for a duration.
type soakLoad struct {
	mix      [4]float64   // relative weights of overlap, coverage, batch, ingest
	answered atomic.Int64 // responses of any status
	wg       sync.WaitGroup
	mu       sync.Mutex
	ok       [4]int   // 200s per class
	errs     []string // non-200s, and transport errors unless ctx is done
}

// startSoakLoad returns once the load has had 40 answers, far fewer than a
// phase serves, so a kill right after it lands mid-load.
func startSoakLoad(ctx context.Context, t *testing.T, url string, mix [4]float64, d time.Duration, seed int64, clientID string) *soakLoad {
	t.Helper()
	l, end, hc := &soakLoad{mix: mix}, time.Now().Add(d), &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for i := range 4 {
		l.wg.Add(1)
		go l.client(ctx, hc, url, fmt.Sprintf("%s-%d", clientID, i), rand.New(rand.NewSource(seed+int64(i)*7919)), end)
	}
	for deadline := time.Now().Add(5 * time.Second); l.answered.Load() < 40; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the load got %d answers in 5 s, want 40 before the kill", l.answered.Load())
		}
	}
	return l
}

// client sends requests drawn from the mix until end, tallying each.
func (l *soakLoad) client(ctx context.Context, hc *http.Client, url, id string, rng *rand.Rand, end time.Time) {
	defer l.wg.Done()
	near := func(c float64) float64 { return min(max(c+(rng.Float64()-0.5)*soakSide/50, 0), soakSide) }
	blob := func() (pts [][2]float64) {
		cx, cy := rng.Float64()*soakSide, rng.Float64()*soakSide
		for range 6 {
			pts = append(pts, [2]float64{near(cx), near(cy)})
		}
		return pts
	}
	q := func() map[string]any { return map[string]any{"points": blob(), "k": 1 + rng.Intn(5)} }
	for time.Now().Before(end) && ctx.Err() == nil {
		c, v := 0, rng.Float64()*(l.mix[0]+l.mix[1]+l.mix[2]+l.mix[3])
		for ; c < 3 && v >= l.mix[c]; c++ {
			v -= l.mix[c]
		}
		path, body := "/search/overlap", q()
		switch c {
		case 1:
			path, body["delta"] = "/search/coverage", 10
		case 2:
			path, body = "/search/batch", map[string]any{"queries": []any{body, q(), q(), q(), q(), q(), q(), q()}}
		case 3:
			path, body = "/ingest/dataset", map[string]any{"source": "alpha", "id": 1_000_000 + rng.Intn(64), "name": "load-upsert", "points": body["points"]}
		}
		b, _ := json.Marshal(body)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(b))
		req.Header.Set("X-Client-ID", id)
		resp, err := hc.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			l.answered.Add(1)
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%d %.120s", resp.StatusCode, msg)
			}
		}
		l.mu.Lock()
		if err == nil {
			l.ok[c]++
		} else if resp != nil || ctx.Err() == nil { // a transport error after ctx is done is the test ending
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", path, err))
		}
		l.mu.Unlock()
	}
}

// check waits for the load to end and fails t unless it went clean.
func (l *soakLoad) check(t *testing.T) {
	t.Helper()
	l.wg.Wait()
	if l.ok == [4]int{} || len(l.errs) != 0 || l.mix[3] > 0 && l.ok[3] == 0 {
		t.Fatalf("load: 200s %v (overlap, coverage, batch, ingest), %d failures, first %q", l.ok, len(l.errs), l.errs[:min(len(l.errs), 5)])
	}
}
