package core

import (
	"testing"

	"dits/internal/dataset"
	"dits/internal/workload"
)

func smallSource(name string, seed int64) *dataset.Source {
	spec := workload.Specs()[3] // Transit: small, dense
	spec.Name = name
	return workload.Generate(spec, 0.03, seed)
}

func TestEngineEndToEnd(t *testing.T) {
	src := smallSource("Transit", 1)
	eng, err := NewEngine(src, Config{Theta: 11})
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumDatasets() != src.NumDatasets() {
		t.Fatalf("indexed %d, want %d", eng.NumDatasets(), src.NumDatasets())
	}
	q := src.Datasets[5].Points

	rs := eng.OverlapSearch(q, 5)
	if len(rs) == 0 {
		t.Fatal("overlap search found nothing for an indexed dataset's own points")
	}
	if rs[0].ID != 5 {
		t.Errorf("self-query best match = %d, want 5", rs[0].ID)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Error("results not ranked")
		}
	}

	cov := eng.CoverageSearch(q, 5, 4)
	if cov.Coverage < cov.QueryCoverage {
		t.Errorf("coverage %d < query coverage %d", cov.Coverage, cov.QueryCoverage)
	}
	if len(cov.Results) == 0 {
		t.Error("coverage picked nothing")
	}
	sum := cov.QueryCoverage
	for _, r := range cov.Results {
		sum += r.Score
	}
	if sum != cov.Coverage {
		t.Errorf("gains %d do not telescope to coverage %d", sum, cov.Coverage)
	}
}

func TestEngineMutations(t *testing.T) {
	src := smallSource("Transit", 2)
	eng, err := NewEngine(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := &dataset.Dataset{ID: 9999, Name: "new", Points: src.Datasets[0].Points}
	if err := eng.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	rs := eng.OverlapSearch(src.Datasets[0].Points, 2)
	found := false
	for _, r := range rs {
		if r.ID == 9999 {
			found = true
		}
	}
	if !found {
		t.Error("inserted duplicate dataset should tie for the top")
	}
	if err := eng.Update(&dataset.Dataset{ID: 9999, Name: "new", Points: src.Datasets[1].Points}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(9999); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(9999); err == nil {
		t.Error("double delete should error")
	}
	if err := eng.Insert(&dataset.Dataset{ID: 1234}); err == nil {
		t.Error("inserting an empty dataset should error")
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Error("nil source should error")
	}
	src := smallSource("T", 3)
	eng, _ := NewEngine(src, Config{})
	if rs := eng.OverlapSearch(nil, 5); rs != nil {
		t.Error("empty query should return nil")
	}
	if cov := eng.CoverageSearch(nil, 1, 5); len(cov.Results) != 0 {
		t.Error("empty query coverage should pick nothing")
	}
}
