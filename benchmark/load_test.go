package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop keeps its schedule while the server stalls, and charges the
// stall to every request that was due during it: latency counts from the
// due time, lateness only counts the dispatcher's own wake-up delay.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Stall every connection once, at the start.
		if served.Add(1) <= int64(numClients()) {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	spec, _ := workloadByName("ojsp-large")
	spec.rate = 200
	gen := newGenerator(spec, smokeCorpus, 1)
	l := newLoader(&stack{spec: spec, url: srv.URL, rec: newRecorder()}, gen)
	defer l.close()
	res := l.runOpen(500*time.Millisecond, spec.rate)

	if res.sent != 100 || res.failed != 0 || len(res.lat[classOJSP]) != 100 {
		t.Fatalf("sent %d, failed %d, timed %d; want 100, 0, 100: %v", res.sent, res.failed, len(res.lat[classOJSP]), res.errs)
	}
	if len(res.late) != 100 {
		t.Fatalf("%d lateness samples, want 100", len(res.late))
	}
	lat := sortedCopy(res.lat[classOJSP])
	// About 40 requests were due during the 200 ms stall. Each was served in
	// well under a millisecond once a connection freed up, but waited for
	// one: a service-time clock would show them fast, the due-time clock
	// must not.
	queued := 0
	for _, ms := range lat {
		if ms > 20 {
			queued++
		}
	}
	if queued < 25 {
		t.Errorf("%d requests show the stall in their latency, want the ~40 due during it; latencies %v", queued, lat)
	}
	if lat[len(lat)-1] < float64(stall/time.Millisecond)-1 {
		t.Errorf("slowest latency %.1f ms is below the %v stall", lat[len(lat)-1], stall)
	}
	// The dispatcher itself never waited for a connection.
	if late := percentile(sortedCopy(res.late), 90); late > 20 {
		t.Errorf("p90 lateness %.1f ms: the dispatcher was held up by the stall", late)
	}
	if slices.Min(res.late) < 0 {
		t.Errorf("negative lateness %v: a request was dispatched before it was due", slices.Min(res.late))
	}
	if got := res.elapsed; got < 495*time.Millisecond {
		t.Errorf("open loop of 100 requests at 200/s ended after %v", got)
	}
}
