package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dits/internal/admission"
	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/transport"
)

// newGuardedGateway builds a one-source in-proc federation behind a
// gateway with the given options. delay stalls every search RPC (the
// handler honors context cancellation, like a real TCP source under a
// propagated deadline).
func newGuardedGateway(t *testing.T, opts Options, delay time.Duration) (*httptest.Server, *Gateway) {
	t.Helper()
	side := float64(int64(1) << theta)
	grid := geo.NewGrid(theta, geo.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side})
	center := federation.NewCenter(grid, federation.DefaultOptions())
	center.SetCache(cache.New(0)) // no cache: every request must hit the source

	var nodes []*dataset.Node
	for i := 0; i < 8; i++ {
		nd := dataset.NewNodeFromCells(i, fmt.Sprintf("d%d", i),
			cellset.New(geo.ZEncode(uint32(i), uint32(i))))
		nodes = append(nodes, nd)
	}
	srv := federation.NewSourceServerWithGrid("slow", dits.Build(grid, nodes, 8))
	inner := srv.Handler()
	handler := func(ctx context.Context, codec transport.Codec, method string, body []byte) (any, error) {
		if delay > 0 && (method == federation.MethodOverlap || method == federation.MethodCoverage) {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return inner(ctx, codec, method, body)
	}
	peer := &transport.InProc{Name: "slow", Handler: handler, Metrics: center.Metrics}
	if _, err := center.RegisterRemote(context.Background(), peer); err != nil {
		t.Fatal(err)
	}
	g := NewWithOptions(center, opts)
	hs := httptest.NewServer(g.Handler())
	t.Cleanup(hs.Close)
	return hs, g
}

// searchBody is a valid overlap query against newGuardedGateway's world.
func searchBody() []byte {
	b, _ := json.Marshal(map[string]any{"points": [][2]float64{{1.5, 1.5}, {2.5, 2.5}}, "k": 3})
	return b
}

// do sends one request with an optional client ID and returns the
// response (body drained and closed).
func do(t *testing.T, method, url string, body []byte, clientID string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
}

// TestAdmissionBehavior is the table-driven contract of the guarded
// endpoints: what each overload or bad input maps to on the wire.
func TestAdmissionBehavior(t *testing.T) {
	cases := []struct {
		name       string
		opts       Options
		delay      time.Duration
		run        func(t *testing.T, url string, g *Gateway) (*http.Response, string)
		wantStatus int
		wantBody   string // substring of the response body
		check      func(t *testing.T, resp *http.Response, body string)
	}{
		{
			name: "rate limit shed returns 429 with Retry-After",
			opts: Options{Admission: admission.Config{Rate: 0.5, Burst: 1}},
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				resp, _ := do(t, "POST", url+"/search/overlap", searchBody(), "shedder")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("burst request = %d, want 200", resp.StatusCode)
				}
				return do(t, "POST", url+"/search/overlap", searchBody(), "shedder")
			},
			wantStatus: http.StatusTooManyRequests,
			wantBody:   "overloaded",
			check: func(t *testing.T, resp *http.Response, _ string) {
				ra := resp.Header.Get("Retry-After")
				if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
					t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
				}
			},
		},
		{
			name:  "deadline exceeded maps to 504",
			opts:  Options{Admission: admission.Config{Deadline: 50 * time.Millisecond}},
			delay: 2 * time.Second,
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				return do(t, "POST", url+"/search/overlap", searchBody(), "")
			},
			wantStatus: http.StatusGatewayTimeout,
			wantBody:   "deadline",
		},
		{
			name: "malformed JSON is 400",
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				return do(t, "POST", url+"/search/overlap", []byte(`{"points": [[1,`), "")
			},
			wantStatus: http.StatusBadRequest,
			wantBody:   "bad request body",
		},
		{
			name: "unknown JSON field is 400",
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				return do(t, "POST", url+"/search/overlap", []byte(`{"points":[[1,1]],"kk":3}`), "")
			},
			wantStatus: http.StatusBadRequest,
			wantBody:   "bad request body",
		},
		{
			name: "bytes after the body are 400",
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				return do(t, "POST", url+"/search/overlap", append(searchBody(), "garbage"...), "")
			},
			wantStatus: http.StatusBadRequest,
			wantBody:   "trailing data",
		},
		{
			name: "batch over the limit fails at its 257th member",
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				big := []byte(`{"queries":[` + strings.Repeat(`{"cells":[1]},`, 10000) + `{"cells":[1]}]}`)
				return do(t, "POST", url+"/search/batch", big, "")
			},
			wantStatus: http.StatusBadRequest,
			wantBody:   "query 256: batch holds more than 256 queries",
		},
		{
			name: "oversized body is 413",
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				big := append([]byte(`{"points":[`), bytes.Repeat([]byte("[1,1],"), maxBodyBytes/6+1)...)
				return do(t, "POST", url+"/search/overlap", big, "")
			},
			wantStatus: http.StatusRequestEntityTooLarge,
			wantBody:   "exceeds",
		},
		{
			name: "queue-full shed returns 429",
			opts: Options{Admission: admission.Config{MaxInFlight: 1, MaxQueue: 0}},
			// Delay long enough that the holder is still in flight when the
			// second request arrives, short enough not to drag the test.
			delay: 700 * time.Millisecond,
			run: func(t *testing.T, url string, g *Gateway) (*http.Response, string) {
				done := make(chan struct{})
				go func() {
					defer close(done)
					req, _ := http.NewRequest("POST", url+"/search/overlap", bytes.NewReader(searchBody()))
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set("X-Client-ID", "holder")
					if resp, err := http.DefaultClient.Do(req); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
				// The holder's request blocks in the slow source for 700ms;
				// send the second once it holds the only in-flight slot.
				poll, timeout := time.NewTicker(time.Millisecond), time.After(5*time.Second)
				defer poll.Stop()
				for g.Admission().Stats().InFlight != 1 {
					select {
					case <-poll.C:
					case <-timeout:
						t.Fatal("the holder never took the in-flight slot")
					}
				}
				resp, body := do(t, "POST", url+"/search/overlap", searchBody(), "second")
				<-done
				return resp, body
			},
			wantStatus: http.StatusTooManyRequests,
			wantBody:   "overloaded",
			check: func(t *testing.T, resp *http.Response, _ string) {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("queue shed must carry Retry-After")
				}
			},
		},
		{
			name: "ingest to unknown source is 404",
			run: func(t *testing.T, url string, _ *Gateway) (*http.Response, string) {
				b, _ := json.Marshal(map[string]any{"source": "nope", "id": 1, "points": [][2]float64{{1, 1}}})
				return do(t, "POST", url+"/ingest/dataset", b, "")
			},
			wantStatus: http.StatusNotFound,
			wantBody:   "unknown source",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs, g := newGuardedGateway(t, tc.opts, tc.delay)
			resp, body := tc.run(t, hs.URL, g)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("error Content-Type = %q, want JSON", ct)
			}
			if !strings.Contains(body, tc.wantBody) {
				t.Errorf("body = %q, want substring %q", body, tc.wantBody)
			}
			if tc.check != nil {
				tc.check(t, resp, body)
			}
		})
	}
}

// TestObservabilityBypassesAdmission: a fully rate-limited gateway must
// still answer /stats, /metrics, and /healthz — an overloaded server that
// cannot be inspected is an outage.
func TestObservabilityBypassesAdmission(t *testing.T) {
	hs, _ := newGuardedGateway(t, Options{Admission: admission.Config{Rate: 0.001, Burst: 1}}, 0)
	// Exhaust the single token.
	do(t, "POST", hs.URL+"/search/overlap", searchBody(), "x")
	if resp, _ := do(t, "POST", hs.URL+"/search/overlap", searchBody(), "x"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("guarded endpoint should shed, got %d", resp.StatusCode)
	}
	for _, path := range []string{"/stats", "/metrics", "/healthz"} {
		resp, _ := do(t, "GET", hs.URL+path, nil, "x")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d during overload, want 200", path, resp.StatusCode)
		}
	}
}

// TestStatsAndMetricsExposeAdmission: sheds and deadline hits must show
// up in both the JSON stats and the Prometheus exposition.
func TestStatsAndMetricsExposeAdmission(t *testing.T) {
	hs, _ := newGuardedGateway(t, Options{
		Admission: admission.Config{Rate: 1, Burst: 1, Deadline: 30 * time.Millisecond},
	}, 2*time.Second)

	if resp, body := do(t, "POST", hs.URL+"/search/overlap", searchBody(), "c1"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow search = %d (%s), want 504", resp.StatusCode, body)
	}
	if resp, _ := do(t, "POST", hs.URL+"/search/overlap", searchBody(), "c1"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatal("second request should shed")
	}

	var st StatsResponse
	if code := postGet(t, hs.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Admission.Admitted != 1 || st.Admission.ShedRate != 1 || st.Admission.DeadlineExceeded != 1 {
		t.Fatalf("admission stats = %+v", st.Admission)
	}

	_, metricsBody := do(t, "GET", hs.URL+"/metrics", nil, "")
	for _, want := range []string{
		"dits_admission_admitted_total 1",
		`dits_admission_shed_total{reason="rate"} 1`,
		"dits_admission_deadline_exceeded_total 1",
		"dits_gateway_request_seconds_bucket",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// postGet GETs a JSON document.
func postGet(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}
