package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dits/internal/dataset"
)

func traceSources(t *testing.T) []*dataset.Source {
	t.Helper()
	var out []*dataset.Source
	for _, name := range []string{"Transit", "Baidu"} {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Generate(spec, 0.01, 3))
	}
	return out
}

func TestGenerateTraceDeterministicAndApplicable(t *testing.T) {
	srcs := traceSources(t)
	a := GenerateTrace(srcs, 200, 42)
	b := GenerateTrace(srcs, 200, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trace generation is not deterministic")
	}
	if len(a) != 200 {
		t.Fatalf("trace holds %d mutations, want 200", len(a))
	}
	c := GenerateTrace(srcs, 200, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}

	// Applicability: replay against per-source live sets; deletes and
	// updates must always target live IDs, inserts always new IDs.
	live := map[string]map[int]bool{}
	for _, src := range srcs {
		live[src.Name] = map[int]bool{}
		for _, d := range src.Datasets {
			if len(d.Points) > 0 {
				live[src.Name][d.ID] = true
			}
		}
	}
	var puts, deletes int
	for i, m := range a {
		switch m.Op {
		case MutPut:
			puts++
			if len(m.Points) == 0 {
				t.Fatalf("entry %d: put with no points", i)
			}
			live[m.Source][m.ID] = true
		case MutDelete:
			deletes++
			if !live[m.Source][m.ID] {
				t.Fatalf("entry %d: delete of non-live id %d", i, m.ID)
			}
			delete(live[m.Source], m.ID)
		}
	}
	if puts == 0 || deletes == 0 {
		t.Fatalf("degenerate mix: %d puts, %d deletes", puts, deletes)
	}
}

// TestGenerateTraceGolden pins the trace byte for byte at a fixed seed and
// scale, so a change meant to leave it alone (such as where the source
// bounds are computed) shows that it did.
func TestGenerateTraceGolden(t *testing.T) {
	b, err := json.Marshal(GenerateTrace(traceSources(t), 500, 42))
	if err != nil {
		t.Fatal(err)
	}
	const want = "75605ca173e69913caf4f1e34e726c69331be3fcd396ad643986a942a84b3c32"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Fatalf("trace digest %s, want %s", got, want)
	}
}
