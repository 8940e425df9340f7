package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"dits/internal/obs"
)

// cjspMethods are the wire methods a coverage search is made of, on any
// link, under either protocol.
var cjspMethods = []string{"coverage.round", "coverage.fetch", "coverage.close", "coverage.best", "cluster.covstep"}

// traceDoc is what trace-<workload>.json holds: the per-request
// decomposition of the traced window's first requests, span by span.
type traceDoc struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Stamp    stamp          `json:"stamp"`
	Requests int            `json:"requests"`    // requests decomposed
	StrayPct float64        `json:"stray_pct"`   // time outside the enclosing tier, % of root time
	SelfMs   map[string]any `json:"self_ms_p50"` // class -> tier -> p50 self time
	Sample   []traceRequest `json:"sample"`      // the first requests, in full
	Units    string         `json:"units"`       // of the sample's numbers
}

type traceRequest struct {
	Trace  string             `json:"trace"`
	Class  string             `json:"class"`
	RootUs float64            `json:"root_us"`
	SelfUs map[string]float64 `json:"self_us"` // tier -> blocking self time; sums to root_us
	Spans  []traceSpan        `json:"spans"`
}

type traceSpan struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Peer    string  `json:"peer,omitempty"`
	StartUs float64 `json:"start_us"` // from the request's start
	DurUs   float64 `json:"dur_us"`
}

const traceSampleCap = 500

// analyze turns the traced window's spans and counters into the per-layer
// metrics that come from traffic (as opposed to the kernel pass), and
// returns the document to write out plus any validity error.
func analyze(st *stack, spans []span, traced *phaseResult, backendSelf []float64, m map[string]float64) (*traceDoc, error) {
	spec := st.spec
	primary := reportName[spec.primary]
	groups := groupByTrace(spans)
	// Order requests by their client span so the sample is the window's
	// first requests whatever the map iteration order. Groups without one
	// (direct calls) sort last; decompose skips them.
	startOf := make(map[obs.TraceID]int64, len(groups))
	ids := make([]obs.TraceID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
		startOf[id] = math.MaxInt64
	}
	for _, s := range spans {
		if s.Kind == kindClient {
			startOf[s.Trace] = s.Start
		}
	}
	slices.SortFunc(ids, func(a, b obs.TraceID) int { return cmp.Compare(startOf[a], startOf[b]) })

	doc := &traceDoc{Workload: spec.name, SelfMs: map[string]any{}, Units: "microseconds"}
	self := make(map[string]*[numKinds][]float64) // class -> tier -> self ns
	var rootSum, straySum float64
	var fanout, rounds, straggler []float64
	var serveBusy float64 // handler time summed over every call, parallel ones included
	wire := make(map[string][]float64)
	serve := make(map[string][]float64)
	var tierSum [numKinds]float64 // blocking self time per tier, all requests
	for _, id := range ids {
		g := groups[id]
		b, ok := decompose(g)
		if !ok {
			continue // a direct call or a request whose trace header was lost
		}
		doc.Requests++
		rootSum += float64(b.Root)
		straySum += float64(b.Stray)
		if self[b.Class] == nil {
			self[b.Class] = new([numKinds][]float64)
		}
		for k := range b.Self {
			self[b.Class][k] = append(self[b.Class][k], float64(b.Self[k]))
			tierSum[k] += float64(b.Self[k])
		}
		var rpcs []float64
		perPeer := make(map[string]float64)
		for _, s := range g {
			if s.Kind == kindRPC {
				rpcs = append(rpcs, float64(s.dur()))
				if s.Name == "coverage.round" {
					perPeer[s.Peer]++
				}
			}
		}
		switch b.Class {
		case "ojsp":
			if len(rpcs) > 0 { // a cache hit fans out to nobody
				fanout = append(fanout, float64(len(rpcs)))
			}
			if len(rpcs) >= 2 {
				straggler = append(straggler, slices.Max(rpcs)/median(rpcs))
			}
		case "cjsp":
			most := 0.0
			for _, n := range perPeer {
				most = max(most, n)
			}
			rounds = append(rounds, most)
		}
		for _, p := range pairCalls(g, kindRPC, kindServe) {
			wire[p.Method] = append(wire[p.Method], float64(p.RPC.dur()-p.Serve.dur()))
			serve[p.Method] = append(serve[p.Method], float64(p.Serve.dur()))
			serveBusy += float64(p.Serve.dur())
		}
		if len(doc.Sample) < traceSampleCap {
			doc.Sample = append(doc.Sample, sampleRequest(id, g, b))
		}
	}

	for cls, tiers := range self {
		row := map[string]float64{}
		for k, xs := range tiers {
			if len(xs) > 0 {
				row[kindNames[k]] = p50(xs) / 1e6
			}
		}
		doc.SelfMs[cls] = row
	}
	if rootSum > 0 {
		doc.StrayPct = 100 * straySum / rootSum
	}

	front := self[primary]
	if front == nil {
		return doc, fmt.Errorf("traced window recorded no %s request", primary)
	}
	m["gateway.self_ms_p50"] = (p50(front[kindClient]) - p50(backendSelf)) / 1e6
	m["gateway.req_kb_p50"] = p50(traced.reqKiB)
	if spec.cluster {
		m["federation.center_self_ms_p50"] = p50(front[kindCenter]) / 1e6
		m["federation.cluster_hop_ms_p50"] = p50(front[kindHop]) / 1e6
	} else {
		m["federation.center_self_ms_p50"] = p50(backendSelf) / 1e6
	}
	m["federation.fanout_per_ojsp"] = mean(fanout)
	m["federation.rounds_per_cjsp"] = mean(rounds)
	m["federation.straggler_ratio"] = p50(straggler)
	if n := len(traced.lat[classCJSP]); n > 0 {
		var calls int64
		for _, method := range cjspMethods {
			calls += traced.methods[method].Calls
		}
		m["federation.msgs_per_cjsp"] = float64(calls) / float64(n)
	}
	for _, method := range wireMethods {
		m["transport.wire_ms_p50."+method] = p50(wire[method]) / 1e6
		m["source.serve_ms_p50."+method] = p50(serve[method]) / 1e6
		if s := traced.methods[method]; s.Calls > 0 {
			m["transport.bytes_per_call."+method] = float64(s.BytesSent+s.BytesReceived) / float64(s.Calls)
		}
	}
	if rootSum > 0 {
		m["source.serve_share"] = tierSum[kindServe] / rootSum
		m["transport.wire_share"] = (tierSum[kindRPC] + tierSum[kindHop]) / rootSum
	}
	// The recorded requests are a random two thirds; scale their handler
	// time up to all requests before dividing by the window's core time.
	if on, off := traced.recorded(); on > 0 {
		all := serveBusy * float64(on+off) / float64(on)
		m["source.busy_share"] = all / (float64(traced.elapsed) * float64(runtime.GOMAXPROCS(0)))
	}

	if doc.StrayPct >= 1 {
		return doc, fmt.Errorf("trace decomposition is unsound: %.2f%% of request time lies outside its enclosing tier", doc.StrayPct)
	}
	return doc, nil
}

func sampleRequest(id obs.TraceID, g []span, b breakdown) traceRequest {
	r := traceRequest{Trace: id.String(), Class: b.Class, RootUs: float64(b.Root) / 1e3, SelfUs: map[string]float64{}}
	slices.SortFunc(g, func(x, y span) int {
		if x.Start != y.Start {
			return int(x.Start - y.Start)
		}
		return int(x.Kind) - int(y.Kind)
	})
	origin := g[0].Start
	for _, s := range g {
		if s.Kind == kindClient {
			origin = s.Start
		}
	}
	for k, v := range b.Self {
		if v != 0 {
			r.SelfUs[kindNames[k]] = float64(v) / 1e3
		}
	}
	for _, s := range g {
		r.Spans = append(r.Spans, traceSpan{Kind: kindNames[s.Kind], Name: s.Name, Peer: s.Peer,
			StartUs: float64(s.Start-origin) / 1e3, DurUs: float64(s.dur()) / 1e3})
	}
	return r
}

// writeTrace writes the trace document under dir.
func writeTrace(dir string, doc *traceDoc) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+doc.Workload+".json")
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
