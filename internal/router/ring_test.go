package router

import "testing"

// ownerOf is the replica a key routes to first: the head of its rotation.
func ownerOf(r *ring, key int32) *replica { return r.rotation(key)[0] }

func testReplicas(urls ...string) []*replica {
	reps := make([]*replica, len(urls))
	for i, u := range urls {
		reps[i] = &replica{url: u, state: stateHealthy}
	}
	return reps
}

func TestRingDeterministicOwnership(t *testing.T) {
	reps := testReplicas("http://a", "http://b", "http://c")
	r1 := buildRing(reps, 64)
	r2 := buildRing(reps, 64)
	for key := int32(1); key <= 500; key++ {
		if ownerOf(r1, key) != ownerOf(r2, key) {
			t.Fatalf("key %d owned differently by identical rings", key)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	reps := testReplicas("http://a", "http://b", "http://c")
	r := buildRing(reps, 64)
	counts := make(map[*replica]int)
	const keys = 3000
	for key := int32(1); key <= keys; key++ {
		counts[ownerOf(r, key)]++
	}
	if len(counts) != 3 {
		t.Fatalf("only %d replicas own keys, want 3", len(counts))
	}
	for rep, n := range counts {
		// With 64 vnodes each replica should own a meaningful share; a
		// replica under 10% means the hash is clumping.
		if n < keys/10 {
			t.Errorf("replica %s owns only %d/%d keys", rep.url, n, keys)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// Removing one replica may only move the keys it owned; everything
	// else keeps its owner. That is the property that keeps replica
	// caches warm across membership churn.
	all := testReplicas("http://a", "http://b", "http://c", "http://d")
	full := buildRing(all, 64)
	without := buildRing(all[:3], 64)
	moved := 0
	const keys = 2000
	for key := int32(1); key <= keys; key++ {
		was, is := ownerOf(full, key), ownerOf(without, key)
		if was == all[3] {
			continue // its owner left; it must move somewhere
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the departed replica changed owner", moved)
	}
}

func TestRingRotation(t *testing.T) {
	reps := testReplicas("http://a", "http://b", "http://c")
	r := buildRing(reps, 32)
	for key := int32(1); key <= 100; key++ {
		rot := r.rotation(key)
		if len(rot) != 3 {
			t.Fatalf("rotation(%d) has %d replicas, want all 3", key, len(rot))
		}
		if rot[0] != r.points[r.search(keyHash(key))].rep {
			t.Fatalf("rotation(%d) does not start at the key's first point clockwise", key)
		}
		seen := map[*replica]bool{}
		for _, rep := range rot {
			if seen[rep] {
				t.Fatalf("rotation(%d) repeats replica %s", key, rep.url)
			}
			seen[rep] = true
		}
	}
}

func TestRingSingleReplica(t *testing.T) {
	r := buildRing(testReplicas("http://only"), 64)
	for key := int32(1); key <= 50; key++ {
		if ownerOf(r, key).url != "http://only" {
			t.Fatal("single-replica ring misroutes")
		}
	}
	if buildRing(nil, 64) != nil {
		t.Fatal("empty ring should be nil")
	}
}

// TestAffinityKey pins the routing key: a source set keys the same however
// it is spelled, different sets and different tenants key apart, and the
// empty set keys on the tenant salt alone.
func TestAffinityKey(t *testing.T) {
	base := affinityKey("", []int32{3, 41, 97})
	for _, spelling := range [][]int32{{97, 3, 41}, {41, 97, 3, 3}, {3, 3, 41, 97, 97}} {
		if got := affinityKey("", spelling); got != base {
			t.Fatalf("affinityKey(%v) = %d, want %d (same set as {3 41 97})", spelling, got, base)
		}
	}
	if affinityKey("", []int32{3, 41}) == base || affinityKey("", []int32{3, 41, 98}) == base {
		t.Fatal("distinct source sets share a key")
	}
	if affinityKey("wide", []int32{3, 41, 97}) == base {
		t.Fatal("a tenant's source set keys like the default tenant's")
	}
	for _, tenant := range []string{"", "wide", "deep"} {
		if got := affinityKey(tenant, nil); got != tenantSalt(tenant) {
			t.Fatalf("tenant %q: empty set keys %d, want the tenant salt %d", tenant, got, tenantSalt(tenant))
		}
	}
	// The input is not reordered in place: callers may still hold it.
	in := []int32{9, 2, 5}
	affinityKey("", in)
	if in[0] != 9 || in[1] != 2 || in[2] != 5 {
		t.Fatalf("affinityKey reordered its input: %v", in)
	}
}
