package federation

import (
	"fmt"
	"reflect"
	"testing"
)

// shardTestSources returns n deterministic source names.
func shardTestSources(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("source-%03d", i)
	}
	return out
}

func TestShardMapDeterministicGolden(t *testing.T) {
	// Cross-process determinism is a wire-level contract: every gateway
	// must compute the identical map with no coordination. The literal
	// expectations below pin the hash and ring construction — if this
	// test breaks, the change reshuffles every deployed cluster's shards
	// and must be treated like a wire-format bump.
	if got := shardHash("Transit"); got != 0x57014a2725fa87c2 {
		t.Fatalf("shardHash(Transit) = %#x", got)
	}
	m := NewShardMap([]string{"center-b", "center-a", "center-c", "center-b"})
	if got := m.centers; !reflect.DeepEqual(got, []string{"center-a", "center-b", "center-c"}) {
		t.Fatalf("centers = %v", got)
	}
	counts := map[string]int{}
	for _, s := range shardTestSources(256) {
		counts[m.Assign(s)]++
	}
	// Golden distribution for 256 sources over 3 centers at 64 vnodes.
	want := map[string]int{"center-a": 95, "center-b": 71, "center-c": 90}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("assignment distribution = %v, want %v", counts, want)
	}
	// A second independently built map agrees source by source.
	m2 := NewShardMap([]string{"center-c", "center-a", "center-b"})
	for _, s := range shardTestSources(256) {
		if m.Assign(s) != m2.Assign(s) {
			t.Fatalf("maps disagree on %s: %s vs %s", s, m.Assign(s), m2.Assign(s))
		}
	}
}

func TestShardMapMinimalMovement(t *testing.T) {
	sources := shardTestSources(400)
	centers := []string{"center-a", "center-b", "center-c", "center-d"}
	full := NewShardMap(centers)

	for _, removed := range centers {
		var kept []string
		for _, c := range centers {
			if c != removed {
				kept = append(kept, c)
			}
		}
		reduced := NewShardMap(kept)
		moved := 0
		for _, s := range sources {
			before, after := full.Assign(s), reduced.Assign(s)
			if before == removed {
				moved++
				continue
			}
			// Minimal movement, exactly: a source not owned by the removed
			// center keeps its assignment (the surviving ring points are
			// unchanged).
			if before != after {
				t.Fatalf("%s moved %s→%s though %s was removed", s, before, after, removed)
			}
		}
		// The removed center owned about 1/N of the sources — allow a
		// generous band around it (vnode placement is not perfectly even).
		if lo, hi := len(sources)/(len(centers)*2), len(sources)/2; moved < lo || moved > hi {
			t.Fatalf("removing %s moved %d of %d sources (want %d..%d)", removed, moved, len(sources), lo, hi)
		}
	}

	// Adding a center steals only for itself.
	grown := NewShardMap(append([]string{"center-e"}, centers...))
	moved := 0
	for _, s := range sources {
		before, after := full.Assign(s), grown.Assign(s)
		if before != after {
			if after != "center-e" {
				t.Fatalf("%s moved %s→%s though only center-e was added", s, before, after)
			}
			moved++
		}
	}
	if lo, hi := len(sources)/10, len(sources)/2; moved < lo || moved > hi {
		t.Fatalf("adding center-e moved %d of %d sources (want %d..%d)", moved, len(sources), lo, hi)
	}
}

func TestShardMapShards(t *testing.T) {
	m := NewShardMap([]string{"center-a", "center-b"})
	sources := shardTestSources(40)
	shards := m.Shards(sources)
	total := 0
	for center, shard := range shards {
		total += len(shard)
		for i, s := range shard {
			if m.Assign(s) != center {
				t.Fatalf("shard of %s holds %s owned by %s", center, s, m.Assign(s))
			}
			if i > 0 && shard[i-1] >= s {
				t.Fatalf("shard of %s not sorted: %v", center, shard)
			}
		}
	}
	if total != len(sources) {
		t.Fatalf("shards cover %d of %d sources", total, len(sources))
	}
}

// FuzzShardMap feeds arbitrary center/source names through assignment and
// routing: determinism across independently built maps, an owner on the
// ring, and full shard coverage must hold for any input.
func FuzzShardMap(f *testing.F) {
	f.Add("center-a,center-b,center-c", "Transit")
	f.Add("", "x")
	f.Add("a", "")
	f.Add("a,a,b", "source-001")
	f.Add("\x00,\xff\xfe", "\x01\x02")
	f.Fuzz(func(t *testing.T, centerCSV, source string) {
		var centers []string
		start := 0
		for i := 0; i <= len(centerCSV); i++ {
			if i == len(centerCSV) || centerCSV[i] == ',' {
				centers = append(centers, centerCSV[start:i])
				start = i + 1
			}
		}
		m := NewShardMap(centers)
		m2 := NewShardMap(append([]string(nil), centers...))
		owner := m.Assign(source)
		if got := m2.Assign(source); got != owner {
			t.Fatalf("determinism: %q vs %q", owner, got)
		}
		if owner != "" {
			found := false
			for _, c := range m.centers {
				if c == owner {
					found = true
				}
			}
			if !found {
				t.Fatalf("assigned to unknown center %q", owner)
			}
		}
		shards := m.Shards([]string{source, source + "x"})
		n := 0
		for _, shard := range shards {
			n += len(shard)
		}
		if len(m.centers) > 0 && n != 2 {
			t.Fatalf("shards dropped sources: %v", shards)
		}
	})
}
