package federation

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/transport"
)

// BatchQuery is one OJSP query of a batched federated search: its cell
// set and its own k — the shape a source receives, so a cluster.batch
// ships the caller's batch as it is.
type BatchQuery = OverlapRequest

// centerWorkers resolves the center-side pool size for batched execution.
func (c *Center) centerWorkers() int {
	if c.Options.Workers > 0 {
		return c.Options.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// batchPrep is the per-query state the center computes before any network
// traffic: cache key/hit, and which sources are candidates with what clip.
type batchPrep struct {
	cached  bool
	key     string
	members []*member     // candidate sources, name-ordered
	clips   []cellset.Set // aligned with members; non-empty
}

// subEntry is one query of a source's sub-batch: the index into the
// center's batch and the cells clipped for this source.
type subEntry struct {
	qi   int
	clip cellset.Set
}

// OverlapSearchBatch answers a batch of federated OJSP queries in one
// round trip per candidate source: the per-query candidate filtering and
// clipping run on the center's worker pool (Options.Workers), queries are
// grouped by candidate source, each source receives ONE MethodSearchBatch
// carrying only the (clipped) queries it can contribute to, and the
// per-query answers are merged exactly like OverlapSearch would. Entry i
// of the result aligns with queries[i], and each entry is identical to
// what OverlapSearch(queries[i].Cells, queries[i].K) returns — the batch
// shares the same result cache, so mixed single/batched traffic
// deduplicates.
//
// A source that predates MethodSearchBatch (its handler rejects the
// method as unknown) is transparently retried query-by-query over
// MethodOverlap on the same connection; other failures follow
// Options.OnSourceError like every federated query.
func (c *Center) OverlapSearchBatch(ctx context.Context, queries []BatchQuery) ([][]SourceResult, error) {
	out := make([][]SourceResult, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	ep := c.epoch.Load()
	if len(ep.members) == 0 {
		return out, nil
	}
	rc := c.Cache()

	// Phase 1: per-query prep on the pool — cache probe, DITS-G candidate
	// filter, per-source clipping. Queries are independent; each is owned
	// by exactly one worker.
	preps := make([]batchPrep, len(queries))
	var cursor atomic.Int64
	workers := min(c.centerWorkers(), len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				preps[i] = c.prepQuery(ep, rc, queries[i], &out[i])
			}
		}()
	}
	wg.Wait()

	// Phase 2: group by source. A source's sub-batch lists its queries in
	// center-batch order, so responses align deterministically.
	sub := make(map[*member][]subEntry)
	for i := range preps {
		if preps[i].cached {
			continue
		}
		for j, m := range preps[i].members {
			sub[m] = append(sub[m], subEntry{qi: i, clip: preps[i].clips[j]})
		}
	}
	contact := make([]*member, 0, len(sub))
	for m := range sub {
		contact = append(contact, m)
	}
	slices.SortFunc(contact, func(a, b *member) int {
		return cmp.Compare(a.summary.Name, b.summary.Name)
	})

	// Phase 3: one exchange per source (per-query fallback for sources
	// that don't speak search.batch), each on its own goroutine.
	answers, errs := fanOut(contact, func(m *member) ([]OverlapResponse, error) {
		return c.callSearchBatch(ctx, m, sub[m], queries)
	})
	if err := c.resolve(contact, errs, nil); err != nil {
		return nil, err
	}

	// Phase 4: merge per query; queries touched by a failed source are
	// degraded and never cached (the source may recover).
	degraded := make([]bool, len(queries))
	for i, resps := range answers {
		if errs[i] != nil {
			for _, e := range sub[contact[i]] {
				degraded[e.qi] = true
			}
			continue
		}
		name := contact[i].summary.Name
		for j, e := range sub[contact[i]] {
			for _, r := range resps[j].Results {
				out[e.qi] = append(out[e.qi], SourceResult{Source: name, ID: r.ID, Name: r.Name, Overlap: r.Overlap})
			}
		}
	}
	for i := range out {
		if preps[i].cached {
			continue
		}
		out[i] = topK(out[i], queries[i].K)
		if rc != nil && preps[i].key != "" && !degraded[i] {
			rc.Put(preps[i].key, append([]SourceResult(nil), out[i]...))
		}
	}
	return out, nil
}

// prepQuery computes one query's cache/candidate/clip prep. On a cache hit
// the result slot is filled directly and no source work remains.
func (c *Center) prepQuery(ep *epochSnap, rc *cache.Cache, q BatchQuery, slot *[]SourceResult) batchPrep {
	if q.K <= 0 || q.Cells.IsEmpty() {
		return batchPrep{cached: true} // nothing to ask; the slot stays nil
	}
	qn, ok := c.queryNode(q.Cells)
	if !ok {
		return batchPrep{cached: true}
	}
	var p batchPrep
	// The candidate filter runs before the cache probe: the key embeds
	// each candidate's data version (see queryKey), exactly like the
	// single-query path, so batch and single answers share entries and
	// invalidate together.
	cands := c.candidates(ep, qn, 0)
	if rc != nil {
		p.key = c.queryKey(ep.gen, 'O', uint64(q.K), 0, q.Cells, cands)
		if v, ok := rc.Get(p.key); ok {
			cached := v.([]SourceResult)
			*slot = append([]SourceResult(nil), cached...)
			p.cached = true
			return p
		}
	}
	for _, m := range cands {
		clip := c.clipFor(m, q.Cells, 0)
		if clip.IsEmpty() {
			continue
		}
		p.members = append(p.members, m)
		p.clips = append(p.clips, clip)
	}
	return p
}

// callSearchBatch performs one source's batched exchange, falling back to
// query-at-a-time MethodOverlap calls when the source predates the batch
// method. It runs inside the source's fan-out goroutine, preserving the
// one-goroutine-per-peer invariant. The returned slice aligns with
// entries.
func (c *Center) callSearchBatch(ctx context.Context, m *member, entries []subEntry, queries []BatchQuery) ([]OverlapResponse, error) {
	req := SearchBatchRequest{Queries: make([]OverlapRequest, len(entries))}
	for i, e := range entries {
		req.Queries[i] = OverlapRequest{Cells: e.clip, K: queries[e.qi].K}
	}
	var resp SearchBatchResponse
	err := m.peer.Call(ctx, MethodSearchBatch, &req, &resp)
	if isUnknownMethod(err) {
		return c.perQueryFallback(ctx, m, entries, queries)
	}
	if err != nil {
		return nil, fmt.Errorf("federation: search batch at %s: %w", m.summary.Name, err)
	}
	if len(resp.Results) != len(entries) {
		return nil, fmt.Errorf("federation: search batch at %s: %d answers for %d queries",
			m.summary.Name, len(resp.Results), len(entries))
	}
	return resp.Results, nil
}

// perQueryFallback answers a sub-batch one MethodOverlap call at a time —
// the compatibility path for sources that do not implement
// MethodSearchBatch.
func (c *Center) perQueryFallback(ctx context.Context, m *member, entries []subEntry, queries []BatchQuery) ([]OverlapResponse, error) {
	resps := make([]OverlapResponse, len(entries))
	for i, e := range entries {
		req := OverlapRequest{Cells: e.clip, K: queries[e.qi].K}
		if err := m.peer.Call(ctx, MethodOverlap, &req, &resps[i]); err != nil {
			return nil, fmt.Errorf("federation: overlap at %s: %w", m.summary.Name, err)
		}
	}
	return resps, nil
}

// isUnknownMethod reports whether err is a source rejecting an RPC method
// it does not implement — the signal for protocol-version fallback.
func isUnknownMethod(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "unknown method")
}

// topK ranks federated overlap results the canonical way — overlap
// descending, then source name, then dataset ID — and keeps the first k.
func topK(rs []SourceResult, k int) []SourceResult {
	slices.SortFunc(rs, func(a, b SourceResult) int {
		if a.Overlap != b.Overlap {
			return cmp.Compare(b.Overlap, a.Overlap)
		}
		if a.Source != b.Source {
			return cmp.Compare(a.Source, b.Source)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return rs[:max(0, min(k, len(rs)))]
}
