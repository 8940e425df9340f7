package federation

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dits/internal/cache"
	"dits/internal/cellset"
)

// BatchQuery is one OJSP query of a batched federated search: its cell
// set and its own k — the shape a source receives in a search.batch.
type BatchQuery = OverlapRequest

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
// clipping run on a pool of GOMAXPROCS goroutines, queries are
// grouped by candidate source, each source receives ONE MethodSearchBatch
// carrying only the (clipped) queries it can contribute to, and the
// per-query answers are merged exactly like OverlapSearch would. Entry i
// of the result aligns with queries[i], and each entry is identical to
// what OverlapSearch(queries[i].Cells, queries[i].K) returns — the batch
// shares the same result cache, so mixed single/batched traffic
// deduplicates. A failed source follows Options.OnSourceError like every
// federated query.
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
	workers := min(runtime.GOMAXPROCS(0), len(queries))
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

	// Phase 3: one search.batch per source, in one fan-out.
	calls := make([]memberCall, len(contact))
	for i, m := range contact {
		req := &SearchBatchRequest{Queries: make([]OverlapRequest, len(sub[m]))}
		for j, e := range sub[m] {
			req.Queries[j] = OverlapRequest{Cells: e.clip, K: queries[e.qi].K}
		}
		calls[i] = memberCall{m: m, method: MethodSearchBatch, req: req, resp: new(SearchBatchResponse)}
	}
	errs := c.callMembers(ctx, calls)
	for i, call := range calls {
		if n := len(call.resp.(*SearchBatchResponse).Results); errs[i] == nil && n != len(sub[call.m]) {
			errs[i] = fmt.Errorf("federation: search.batch at %s: %d answers for %d queries", call.m.summary.Name, n, len(sub[call.m]))
		}
	}
	if err := c.resolve(calls, errs, nil); err != nil {
		return nil, err
	}

	// Phase 4: merge per query; queries touched by a failed source are
	// degraded and never cached (the source may recover).
	degraded := make([]bool, len(queries))
	for i, call := range calls {
		for j, e := range sub[call.m] {
			if errs[i] != nil {
				degraded[e.qi] = true
				continue
			}
			out[e.qi] = appendResults(out[e.qi], call.m.summary.Name, &call.resp.(*SearchBatchResponse).Results[j])
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
