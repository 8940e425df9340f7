package workload

import (
	"fmt"
	"math/rand"

	"dits/internal/dataset"
	"dits/internal/geo"
)

// MutOp is a mutation-trace opcode.
type MutOp string

const (
	// MutPut upserts a dataset: insert when the ID is new at the source,
	// replace in place when it exists.
	MutPut MutOp = "put"
	// MutDelete removes a dataset by ID.
	MutDelete MutOp = "delete"
)

// Mutation is one entry of a reproducible mutation trace: the workload
// fed to the ingest write path by the benchmark, the differential
// tests and the examples. Points are raw coordinates; consumers grid them under their
// federation's shared grid, exactly like query points.
type Mutation struct {
	Op     MutOp        `json:"op"`
	Source string       `json:"source"`
	ID     int          `json:"id"`
	Name   string       `json:"name,omitempty"`
	Points [][2]float64 `json:"points,omitempty"`
}

// maxTracePoints caps one mutation's payload so trace files stay small.
const maxTracePoints = 120

// GenerateTrace produces a deterministic trace of n mutations against the
// given sources, round-robin: roughly 55% inserts of new datasets (jittered
// copies of existing ones, so they land where the source has data), 25%
// updates re-putting a live ID with perturbed points, and 20% deletes of
// live IDs. The trace is always applicable in order — deletes and updates
// only ever target IDs that are live at that point — and is a pure
// function of (sources, n, seed).
func GenerateTrace(sources []*dataset.Source, n int, seed int64) []Mutation {
	rng := rand.New(rand.NewSource(seed))
	type srcState struct {
		src    *dataset.Source
		bounds geo.Rect
		live   []int
		points map[int][][2]float64 // points of live datasets
		nextID int
	}
	states := make([]*srcState, len(sources))
	for i, src := range sources {
		st := &srcState{src: src, bounds: src.Bounds(), points: make(map[int][][2]float64)}
		for _, d := range src.Datasets {
			if len(d.Points) == 0 {
				continue
			}
			st.live = append(st.live, d.ID)
			st.points[d.ID] = samplePoints(d.Points)
			if d.ID >= st.nextID {
				st.nextID = d.ID + 1
			}
		}
		// Leave generous headroom so trace IDs never collide with source
		// IDs even when the source grows by other means.
		st.nextID += 1 << 20
		states[i] = st
	}

	muts := make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		st := states[i%len(states)]
		bounds := st.bounds
		r := rng.Float64()
		switch {
		case r < 0.55 || len(st.live) == 0: // insert a new dataset
			id := st.nextID
			st.nextID++
			var base [][2]float64
			if len(st.live) > 0 {
				base = st.points[st.live[rng.Intn(len(st.live))]]
			} else {
				base = [][2]float64{{(bounds.MinX + bounds.MaxX) / 2, (bounds.MinY + bounds.MaxY) / 2}}
			}
			pts := jitterPoints(rng, base, bounds)
			muts = append(muts, Mutation{Op: MutPut, Source: st.src.Name, ID: id,
				Name: fmt.Sprintf("ingest-%s-%d", st.src.Name, id), Points: pts})
			st.live = append(st.live, id)
			st.points[id] = pts
		case r < 0.8: // update a live dataset in place
			id := st.live[rng.Intn(len(st.live))]
			pts := jitterPoints(rng, st.points[id], bounds)
			muts = append(muts, Mutation{Op: MutPut, Source: st.src.Name, ID: id,
				Name: fmt.Sprintf("update-%s-%d", st.src.Name, id), Points: pts})
			st.points[id] = pts
		default: // delete a live dataset
			j := rng.Intn(len(st.live))
			id := st.live[j]
			st.live = append(st.live[:j], st.live[j+1:]...)
			delete(st.points, id)
			muts = append(muts, Mutation{Op: MutDelete, Source: st.src.Name, ID: id})
		}
	}
	return muts
}

// samplePoints converts (and bounds) a dataset's points for the trace.
func samplePoints(pts []geo.Point) [][2]float64 {
	stride := 1
	if len(pts) > maxTracePoints {
		stride = (len(pts) + maxTracePoints - 1) / maxTracePoints
	}
	out := make([][2]float64, 0, maxTracePoints)
	for i := 0; i < len(pts); i += stride {
		out = append(out, [2]float64{pts[i].X, pts[i].Y})
	}
	return out
}

// jitterPoints perturbs each point by a small fraction of the source's
// extent, clamped back inside the bounds.
func jitterPoints(rng *rand.Rand, base [][2]float64, bounds geo.Rect) [][2]float64 {
	sx := (bounds.MaxX - bounds.MinX) / 200
	sy := (bounds.MaxY - bounds.MinY) / 200
	out := make([][2]float64, len(base))
	for i, p := range base {
		x := p[0] + rng.NormFloat64()*sx
		y := p[1] + rng.NormFloat64()*sy
		out[i] = [2]float64{
			min(max(x, bounds.MinX), bounds.MaxX),
			min(max(y, bounds.MinY), bounds.MaxY),
		}
	}
	return out
}
