package federation

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
)

// ShardMap assigns sources to centers by consistent hashing: each center
// contributes shardVnodes points on a 64-bit ring, and a source belongs
// to the center owning the first ring point at or after the source's own
// hash. Two properties matter to the cluster plane:
//
//   - Determinism across processes: the hash is fixed (shardHash) over
//     the source NAME (a source's stable identity — hashing its extent
//     would reshuffle the whole map on every mutation), so every gateway and
//     every test computes the identical assignment with no coordination.
//
//   - Minimal movement: removing a center deletes only its own ring
//     points, so exactly the sources it owned move (to their next
//     surviving point) and every other assignment is untouched; adding a
//     center steals only the sources whose hash now lands on one of its
//     points — about 1/N of the total. Failover falls out for free: the
//     gateway rebuilds the ring over the healthy centers and only the
//     dead center's shard re-routes.
//
// A ShardMap is immutable after construction and safe for concurrent use.
type ShardMap struct {
	centers []string // sorted, de-duplicated center names
	hashes  []uint64 // ring point hashes, ascending
	owner   []int    // owner[i] indexes centers for ring point hashes[i]
}

// shardVnodes is the number of ring points per center. 64 keeps the
// ring small (a 3-center ring is 192 points) while bounding shard-size
// imbalance to a few percent.
const shardVnodes = 64

// shardHash is 64-bit FNV-1a followed by a murmur3-style finalizer,
// written out so the shard map's assignments are pinned by this file
// alone — no library behavior in the cross-process determinism contract.
// The finalizer matters: raw FNV-1a keeps structured names ("center-b#0"
// … "center-b#63") in tight arcs of the ring, which collapses the whole
// source population onto one center; the avalanche rounds spread each
// vnode uniformly.
func shardHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewShardMap builds the ring over the given centers (order-insensitive;
// duplicates and empty names collapse away — "" is the "no assignment"
// sentinel, not a center). An empty center list yields a map that
// assigns nothing.
func NewShardMap(centers []string) *ShardMap {
	names := slices.Clone(centers)
	slices.Sort(names)
	names = slices.Compact(names)
	names = slices.DeleteFunc(names, func(s string) bool { return s == "" })
	m := &ShardMap{
		centers: names,
		hashes:  make([]uint64, 0, len(names)*shardVnodes),
		owner:   make([]int, 0, len(names)*shardVnodes),
	}
	type point struct {
		h   uint64
		idx int
	}
	pts := make([]point, 0, len(names)*shardVnodes)
	for i, name := range names {
		for v := 0; v < shardVnodes; v++ {
			pts = append(pts, point{h: shardHash(name + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	// Sort by hash; a (vanishingly unlikely) hash collision between two
	// centers' points is broken by name order so the ring stays one
	// deterministic total order.
	slices.SortFunc(pts, func(a, b point) int {
		if a.h != b.h {
			return cmp.Compare(a.h, b.h)
		}
		return cmp.Compare(names[a.idx], names[b.idx])
	})
	for _, p := range pts {
		m.hashes = append(m.hashes, p.h)
		m.owner = append(m.owner, p.idx)
	}
	return m
}

// succ returns the ring index owning hash h.
func (m *ShardMap) succ(h uint64) int {
	i := sort.Search(len(m.hashes), func(i int) bool { return m.hashes[i] >= h })
	if i == len(m.hashes) {
		return 0 // wrap past the top of the ring
	}
	return i
}

// Assign returns the center owning the named source, or "" on an empty
// ring.
func (m *ShardMap) Assign(source string) string {
	if len(m.hashes) == 0 {
		return ""
	}
	return m.centers[m.owner[m.succ(shardHash(source))]]
}

// Shards partitions sources by owning center: center name → name-sorted
// sources. Centers owning nothing are absent from the map.
func (m *ShardMap) Shards(sources []string) map[string][]string {
	out := make(map[string][]string, len(m.centers))
	for _, s := range sources {
		c := m.Assign(s)
		if c == "" {
			continue
		}
		out[c] = append(out[c], s)
	}
	for _, shard := range out {
		slices.Sort(shard)
	}
	return out
}
