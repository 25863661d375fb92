package router

import (
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over the currently healthy replicas.
// Each replica contributes vnodes points (FNV-1a of "url#i", finished
// through a splitmix64 avalanche so nearby inputs land far apart); a
// routing key (see affinityKey) belongs to the first point clockwise of
// its own hash. Consistent hashing is what keeps ownership — and
// therefore each replica's warm result cache — stable when one replica
// leaves or rejoins: only the keys owned by the departed replica move.
//
// A ring is immutable once built; the router swaps in a fresh ring under
// its lock whenever health state changes, and requests in flight keep the
// snapshot they started with.
type ring struct {
	points []ringPoint
	reps   []*replica // the distinct healthy replicas on the ring
}

type ringPoint struct {
	h   uint64
	rep *replica
}

// buildRing places every replica on the ring. A nil return means no
// replicas are available.
func buildRing(reps []*replica, vnodes int) *ring {
	if len(reps) == 0 {
		return nil
	}
	if vnodes < 1 {
		vnodes = 1
	}
	r := &ring{
		points: make([]ringPoint, 0, len(reps)*vnodes),
		reps:   append([]*replica(nil), reps...),
	}
	for _, rep := range reps {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: pointHash(rep.url, i), rep: rep})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
	return r
}

// rotation returns the distinct replicas in clockwise order starting at
// the key's owner. It is the retry/hedge order for work on that key: the
// owner first (its cache is warm for the key), then the other replicas as
// fallbacks.
func (r *ring) rotation(key int32) []*replica {
	out := make([]*replica, 0, len(r.reps))
	seen := make(map[*replica]bool, len(r.reps))
	start := r.search(keyHash(key))
	for i := 0; i < len(r.points) && len(out) < len(r.reps); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.rep] {
			seen[p.rep] = true
			out = append(out, p.rep)
		}
	}
	return out
}

// search finds the first point at or clockwise of h.
func (r *ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

func pointHash(url string, vnode int) uint64 {
	f := fnv.New64a()
	f.Write([]byte(url))
	f.Write([]byte{'#', byte(vnode), byte(vnode >> 8)})
	return mix(f.Sum64())
}

func keyHash(key int32) uint64 {
	return mix(uint64(uint32(key)) * 0x9e3779b97f4a7c15)
}

// mix is the splitmix64 finisher: a cheap avalanche so sequential keys
// spread uniformly around the ring.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
