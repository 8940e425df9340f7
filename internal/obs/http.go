package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"dits/internal/metrics"
)

// The /debug/traces surface (docs/OBSERVABILITY.md):
//
//	GET /debug/traces        → {"slow_threshold_ms":..,"traces":[summary...]}
//	GET /debug/traces?slow=1 → same, slow ring only
//	GET /debug/traces/{id}   → one full trace with its nested span tree
//
// Summaries are newest first. All responses are JSON.

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	ID         string    `json:"id"`
	Root       string    `json:"root"`
	Err        string    `json:"err,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Dropped    int       `json:"dropped_spans,omitempty"`
}

// TraceDetail is the full form served per trace ID.
type TraceDetail struct {
	TraceSummary
	Tree []*SpanNode `json:"tree"`
}

// SpanNode is one span with its children nested beneath it.
type SpanNode struct {
	Name       string      `json:"name"`
	Source     string      `json:"source,omitempty"`
	StartMs    float64     `json:"start_ms"`
	DurationMs float64     `json:"duration_ms"`
	Err        string      `json:"err,omitempty"`
	Remote     bool        `json:"remote,omitempty"`
	Children   []*SpanNode `json:"children,omitempty"`
}

func summarize(rec *Recorded) TraceSummary {
	return TraceSummary{
		ID:         rec.ID.String(),
		Root:       rec.Root,
		Err:        rec.Err,
		Start:      rec.Start,
		DurationMs: ms(rec.Duration),
		Spans:      len(rec.Spans),
		Dropped:    rec.Dropped,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// SpanTree nests spans under their parents. Spans whose parent is not in
// the set (the root itself, and spans orphaned by buffer drops) become
// top-level nodes. Input order (by start offset) is preserved among
// siblings.
func SpanTree(spans []Span) []*SpanNode {
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{
			Name: s.Name, Source: s.Source,
			StartMs: ms(s.Start), DurationMs: ms(s.Duration),
			Err: s.Err, Remote: s.Remote,
		}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// NewMux returns a mux serving the observability routes of every server:
// GET /metrics from reg, GET /debug/traces from rec, and — when
// withPprof — the net/http/pprof endpoints under /debug/pprof/. Callers
// add their own routes to it.
func NewMux(reg *metrics.Registry, rec *Recorder, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	h := rec.DebugHandler()
	mux.Handle("GET /debug/traces", h)
	mux.Handle("GET /debug/traces/", h)
	if withPprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// DebugHandler serves the /debug/traces endpoints from the recorder. It
// handles both the bare listing path and the /{id} detail path, so mount
// it at "GET /debug/traces" and "GET /debug/traces/".
func (r *Recorder) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rest := strings.Trim(strings.TrimPrefix(req.URL.Path, "/debug/traces"), "/")
		w.Header().Set("Content-Type", "application/json")
		if rest == "" {
			var recs []*Recorded
			if req.URL.Query().Get("slow") != "" {
				recs = r.Slow()
			} else {
				recs = r.List(0)
			}
			sums := make([]TraceSummary, 0, len(recs))
			for _, rec := range recs {
				sums = append(sums, summarize(rec))
			}
			json.NewEncoder(w).Encode(struct {
				SlowThresholdMs float64        `json:"slow_threshold_ms"`
				Traces          []TraceSummary `json:"traces"`
			}{ms(r.SlowThreshold()), sums})
			return
		}
		id, ok := ParseTraceID(rest)
		if !ok {
			http.Error(w, `{"error":"malformed trace id"}`, http.StatusBadRequest)
			return
		}
		rec := r.Lookup(id)
		if rec == nil {
			http.Error(w, `{"error":"trace not found (evicted or never recorded)"}`, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(TraceDetail{
			TraceSummary: summarize(rec),
			Tree:         SpanTree(rec.Spans),
		})
	})
}
