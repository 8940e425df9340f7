package federation

import "sync"

// FailurePolicy decides what a federated query does when one source's peer
// fails mid-query.
type FailurePolicy int

const (
	// FailFast aborts the query on the first source error — the strict
	// mode matching the paper's all-sources-answer model.
	FailFast FailurePolicy = iota
	// SkipFailed drops the failing source from the rest of the query,
	// records the failure in the center's Metrics, and answers from the
	// surviving sources — one dead peer no longer kills a federated
	// query.
	SkipFailed
)

// fanOut runs fn against every member (or per-member call) concurrently
// and collects results and errors in member order. Each member (and thus
// each peer connection) is driven by exactly one goroutine, so peers only
// need to be safe for sequential use. All calls run to completion before
// fanOut returns, keeping connection state consistent; the caller applies
// its failure policy to the aligned error slice.
func fanOut[M, T any](members []M, fn func(M) (T, error)) ([]T, []error) {
	outs := make([]T, len(members))
	errs := make([]error, len(members))
	if len(members) == 1 {
		// Common single-candidate case: skip the goroutine machinery.
		outs[0], errs[0] = fn(members[0])
		return outs, errs
	}
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m M) {
			defer wg.Done()
			outs[i], errs[i] = fn(m)
		}(i, m)
	}
	wg.Wait()
	return outs, errs
}

// resolve applies the center's failure policy to a fan-out's errors, aligned
// with its calls: under FailFast the first error (in call order) is
// returned; under SkipFailed each failure is recorded against its source in
// Metrics and reported through onSkip (which may be nil), and the query
// proceeds on the survivors. The caller must ignore calls[i].resp whenever
// errs[i] != nil.
func (c *Center) resolve(calls []memberCall, errs []error, onSkip func(i int)) error {
	for i, err := range errs {
		if err == nil {
			continue
		}
		if c.Options.OnSourceError == FailFast {
			return err
		}
		c.Metrics.RecordFailure(calls[i].m.summary.Name)
		if onSkip != nil {
			onSkip(i)
		}
	}
	return nil
}
