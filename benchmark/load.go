package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dits/internal/obs"
	"dits/internal/transport"
)

// numClients is the number of client connections and sender goroutines.
// The sandbox has two cores; more senders than cores would measure the
// scheduler.
func numClients() int { return min(2, runtime.NumCPU()) }

// loader drives one stack over HTTP from the generator's streams.
type loader struct {
	st      *stack
	gen     *generator
	client  *http.Client
	streams []*stream

	// Mutations reach the stack in trace order, the next only after the
	// previous one was acknowledged: mutMu is held across the exchange.
	mutMu   sync.Mutex
	mutNext int
}

func newLoader(st *stack, gen *generator) *loader {
	n := numClients()
	l := &loader{st: st, gen: gen, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}}
	for c := 0; c < n; c++ {
		l.streams = append(l.streams, gen.stream(streamClient0+c))
	}
	return l
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// phaseResult is everything one load phase measured.
type phaseResult struct {
	elapsed time.Duration
	lat     [numClasses][]float64 // ms, per class, OK requests only
	latOn   [numClasses][]float64 // traced window: those of lat the wrappers recorded
	latOff  [numClasses][]float64 // traced window: those of lat they left untouched
	late    []float64             // ms, open loop: dispatcher wake-up after the due time
	reqKiB  []float64             // search request body sizes
	sent    int
	failed  int
	genNs   int64 // time spent building requests
	errs    []string

	cpu        time.Duration // process user+sys over the phase
	allocBytes uint64
	gcPauseNs  uint64
	gcCycles   uint32
	rssKiB     float64 // median of the samples taken through the phase
	msgs       int64
	bytes      int64
	hits       int64
	misses     int64
	invalid    int64
	methods    map[string]transport.MethodStats // per-method deltas, all links
}

func (r *phaseResult) ok() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// searches is the number of OK search requests (a batch counts once).
func (r *phaseResult) searches() int { return r.ok() - len(r.lat[classMutate]) }

// recorded counts a traced phase's OK requests by whether the wrappers
// recorded them.
func (r *phaseResult) recorded() (on, off int) {
	for c := range r.lat {
		on += len(r.latOn[c])
		off += len(r.latOff[c])
	}
	return on, off
}

// byName merges the latencies of the classes printed under one name.
func (r *phaseResult) byName(name string) []float64 { return mergeByName(&r.lat, name) }

func mergeByName(lat *[numClasses][]float64, name string) []float64 {
	var out []float64
	for c, n := range reportName {
		if n == name {
			out = append(out, lat[c]...)
		}
	}
	return sortedCopy(out)
}

func (r *phaseResult) merge(o *phaseResult) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.latOn[c] = append(r.latOn[c], o.latOn[c]...)
		r.latOff[c] = append(r.latOff[c], o.latOff[c]...)
	}
	r.reqKiB = append(r.reqKiB, o.reqKiB...)
	r.sent += o.sent
	r.failed += o.failed
	r.genNs += o.genNs
	r.errs = append(r.errs, o.errs...)
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// send performs one HTTP exchange. It returns the response body when keep
// is set (the answer check), otherwise drains it.
func (l *loader) send(req *request, keep bool) (status int, body []byte, trace string, err error) {
	hreq, err := http.NewRequest(req.method, l.st.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, "", err
	}
	if req.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(hreq)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	if keep || resp.StatusCode != http.StatusOK {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Dits-Trace-Id"), err
}

// exec sends one generated request and records its outcome into r. due is
// the instant latency is measured from; zero means "when sending starts".
func (l *loader) exec(r *phaseResult, req *request, due time.Time) {
	if req.class == classMutate {
		l.mutMu.Lock()
		defer l.mutMu.Unlock()
		m, err := l.gen.mutation(l.mutNext)
		if err != nil {
			r.sent++
			r.fail("%v", err)
			return
		}
		l.mutNext++
		req = m
	}
	rec := l.st.rec
	start := rec.now()
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	status, body, trace, err := l.send(req, false)
	end := time.Now()
	r.sent++
	switch {
	case err != nil:
		r.fail("%s %s: %v", req.method, req.path, err)
		return
	case status != http.StatusOK:
		r.fail("%s %s: HTTP %d %s", req.method, req.path, status, strings.TrimSpace(string(body)))
		return
	}
	ms := float64(end.Sub(due)) / 1e6
	r.lat[req.class] = append(r.lat[req.class], ms)
	if req.class != classMutate {
		r.reqKiB = append(r.reqKiB, float64(len(req.body))/1024)
	}
	if recMode(rec.mode.Load()) != recSampled {
		return
	}
	// The gateway's response header says which trace the request was, and
	// so whether the wrappers recorded it.
	switch id, ok := obs.ParseTraceID(trace); {
	case !ok:
	case sampled(id):
		r.latOn[req.class] = append(r.latOn[req.class], ms)
		rec.add(span{Trace: id, Kind: kindClient, Name: reportName[req.class],
			Start: start, End: start + int64(end.Sub(t0))})
	default:
		r.latOff[req.class] = append(r.latOff[req.class], ms)
	}
}

// runClosed runs the closed loop: every client sends its next request as
// soon as the previous one completed, until d has passed.
func (l *loader) runClosed(d time.Duration) *phaseResult {
	res := &phaseResult{}
	parts := make([]*phaseResult, len(l.streams))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c, s := range l.streams {
		parts[c] = &phaseResult{}
		wg.Add(1)
		go func(r *phaseResult, s *stream) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t := time.Now()
				req := s.next()
				r.genNs += int64(time.Since(t))
				l.exec(r, req, time.Time{})
			}
		}(parts[c], s)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, p := range parts {
		res.merge(p)
	}
	return res
}

// runOpen runs the open loop: request i is due at start + i/rate whatever
// the stack is doing, and its latency counts from that due time, so a
// stall delays — and is charged to — every request queued behind it.
// One goroutine builds requests ahead of time, one dispatches them on
// schedule, and the client goroutines send them.
func (l *loader) runOpen(d time.Duration, rate float64) *phaseResult {
	type dueReq struct {
		req *request
		due time.Time
	}
	res := &phaseResult{}
	start := time.Now()
	n := int(d.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	// ready holds requests built ahead of their due time; 64 is more than
	// the dispatcher takes in a quarter of a second.
	ready := make(chan *request, 64)
	// dueCh is sized to the whole phase so the dispatcher never blocks on
	// busy clients: waiting for a free connection is latency, not lateness.
	dueCh := make(chan dueReq, n)
	var genNs int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := l.streams[0]
		for i := 0; i < n; i++ {
			t := time.Now()
			req := s.next()
			genNs += int64(time.Since(t))
			ready <- req
		}
	}()
	parts := make([]*phaseResult, len(l.streams))
	for c := range l.streams {
		parts[c] = &phaseResult{}
		wg.Add(1)
		go func(r *phaseResult) {
			defer wg.Done()
			for dr := range dueCh {
				l.exec(r, dr.req, dr.due)
			}
		}(parts[c])
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		res.late = append(res.late, float64(time.Since(due))/1e6)
		dueCh <- dueReq{<-ready, due}
	}
	close(dueCh)
	wg.Wait()

	res.elapsed = time.Since(start)
	res.genNs = genNs
	for _, p := range parts {
		res.merge(p)
	}
	return res
}

// run executes one load phase of the workload's shape and fills in the
// process- and stack-level deltas around it. A traced phase has the
// wrappers record two requests in three.
func (l *loader) run(d time.Duration, traced bool) *phaseResult {
	st := l.st
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	msgs0, bytes0 := st.commTotals()
	cs0, inv0 := st.cacheStats()
	meth0 := st.methodStats()
	// The sampler reads the resident set every 50 ms; the phase reports
	// the median, which GC timing moves far less than it moves the peak.
	stop := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			rss = append(rss, float64(rssKiB()))
			select {
			case <-stop:
				samples <- rss
				return
			case <-tick.C:
			}
		}
	}()
	// Start every phase right after a collection. At scale 0.5 a GC cycle
	// comes every few seconds and slows the stack for one of them; without
	// this, how many cycles fall into a window is a coin toss between runs.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)

	if traced {
		st.rec.set(recSampled)
	}
	var res *phaseResult
	if st.spec.rate > 0 {
		res = l.runOpen(d, st.spec.rate)
	} else {
		res = l.runClosed(d)
	}

	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	st.rec.set(recOff)
	close(stop)
	res.rssKiB = median(<-samples)
	res.cpu = cpuTime(ru1) - cpuTime(ru0)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	res.gcCycles = ms1.NumGC - ms0.NumGC
	msgs1, bytes1 := st.commTotals()
	cs1, inv1 := st.cacheStats()
	res.msgs, res.bytes = msgs1-msgs0, bytes1-bytes0
	res.hits, res.misses, res.invalid = cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses, inv1-inv0
	res.methods = st.methodStats()
	for m, s0 := range meth0 {
		s1 := res.methods[m]
		res.methods[m] = transport.MethodStats{Calls: s1.Calls - s0.Calls,
			BytesSent: s1.BytesSent - s0.BytesSent, BytesReceived: s1.BytesReceived - s0.BytesReceived}
	}
	return res
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssKiB reads the resident set size from /proc/self/statm, 0 where that
// file does not exist.
func rssKiB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()) / 1024
}

// methodStats sums the per-method transport counters over every link.
func (st *stack) methodStats() map[string]transport.MethodStats {
	out := make(map[string]transport.MethodStats)
	for _, m := range st.links {
		for method, s := range m.PerMethod() {
			t := out[method]
			t.Calls += s.Calls
			t.BytesSent += s.BytesSent
			t.BytesReceived += s.BytesReceived
			out[method] = t
		}
	}
	return out
}
