package federation

import (
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/obs"
)

// BatchQuery is one OJSP query of a batched federated search: its cell
// set and its own k — the shape a source receives in a search.batch.
type BatchQuery = OverlapRequest

// overlapPrep is one OJSP query's state before any network traffic: the
// cached answers of the candidate sources that hit, concatenated, and the
// candidates that missed and have cells to ask about, name-ordered.
type overlapPrep struct {
	found []SourceResult
	asks  []overlapAsk
}

// overlapAsk is one source a query must ask: the cache key of its answer
// (empty without a cache), the source's data version read before the call
// and the query cells clipped for it (non-empty).
type overlapAsk struct {
	m       *member
	key     string
	version uint64
	clip    cellset.Set
}

// subEntry is one query of a source's sub-batch: the index into the
// center's batch, and what to ask this source.
type subEntry struct {
	qi int
	overlapAsk
}

// OverlapSearchBatch answers a batch of federated OJSP queries in one
// round trip per candidate source: the per-query candidate filtering and
// clipping run on a pool of GOMAXPROCS goroutines, queries are
// grouped by candidate source, each source receives ONE MethodSearchBatch
// carrying only the (clipped) queries it can contribute to, and the
// per-query answers are merged exactly like OverlapSearch would. Entry i
// of the result aligns with queries[i], and each entry is identical to
// what OverlapSearch(queries[i].Cells, queries[i].K) returns — the batch
// shares the same per-source cache entries, so mixed single/batched traffic
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
	rc, vers := c.Cache(), *c.versions.Load()

	// Phase 1: per-query prep on the pool — DITS-G candidate filter,
	// per-source cache probe, clipping of the misses. Queries are
	// independent; each is owned by exactly one worker.
	preps := make([]overlapPrep, len(queries))
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
				preps[i] = c.prepQuery(ctx, ep, rc, vers, queries[i])
			}
		}()
	}
	wg.Wait()

	// Phase 2: group by source. A source's sub-batch lists its queries in
	// center-batch order, so responses align deterministically.
	sub := make(map[*member][]subEntry)
	for i := range preps {
		out[i] = preps[i].found
		for _, a := range preps[i].asks {
			sub[a.m] = append(sub[a.m], subEntry{qi: i, overlapAsk: a})
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

	// Phase 4: merge per query. A failed source's answers are never cached
	// (the source may recover); the survivors' are.
	for i, call := range calls {
		if errs[i] != nil {
			continue
		}
		for j, e := range sub[call.m] {
			out[e.qi] = keepAnswer(rc, e.overlapAsk, out[e.qi], &call.resp.(*SearchBatchResponse).Results[j])
		}
	}
	for i := range out {
		out[i] = topK(out[i], queries[i].K)
	}
	return out, nil
}

// prepQuery computes one OJSP query's prep against the pinned epoch, with
// vers the version vector read before any call. Each DITS-G candidate's
// local top-k is probed under its own key (answerKey), in one cache.probe
// span; a hit skips the candidate's clip as well as its call. A hit older
// than the candidate's version in vers counts only if the candidate's
// write log keeps it, and is then cached again at that version. A
// candidate whose clip is empty has nothing to answer: it is neither asked
// nor cached.
func (c *Center) prepQuery(ctx context.Context, ep *epochSnap, rc *cache.Cache, vers map[string]uint64, q BatchQuery) (p overlapPrep) {
	if q.K <= 0 || q.Cells.IsEmpty() || len(ep.members) == 0 {
		return p
	}
	qn, ok := c.queryNode(q.Cells)
	if !ok {
		return p
	}
	cands := c.candidates(ep, qn, 0)
	p.asks = make([]overlapAsk, 0, len(cands))
	var d [sha256.Size]byte
	var sp *obs.ActiveSpan
	if rc != nil {
		d = queryDigest('O', uint64(q.K), 0, q.Cells)
		_, sp = obs.StartSpan(ctx, "cache.probe")
	}
	for _, m := range cands {
		a := overlapAsk{m: m, version: vers[m.summary.Name]}
		if rc != nil {
			a.key = answerKey(&d, nil, m)
			current := func(v any) bool {
				e := v.(ojspEntry)
				return e.version >= a.version || m.writes.keeps(e.version, a.version, q.Cells, q.K, e.items)
			}
			if v, ok := rc.GetIf(a.key, current); ok {
				e := v.(ojspEntry)
				if e.version < a.version {
					rc.Put(a.key, ojspEntry{version: a.version, items: e.items})
				}
				p.found = appendResults(p.found, m.summary.Name, e.items)
				continue
			}
		}
		p.asks = append(p.asks, a)
	}
	endProbe(sp, len(cands)-len(p.asks), len(cands))
	n := 0
	for _, a := range p.asks {
		if a.clip = c.clipFor(a.m, q.Cells, 0); !a.clip.IsEmpty() {
			p.asks[n] = a
			n++
		}
	}
	p.asks = p.asks[:n]
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
