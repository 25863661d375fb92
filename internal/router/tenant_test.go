package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/server"
)

// tenantDBs builds the two named graphs every replica of a multi-tenant
// fleet serves.
func tenantDBs(t *testing.T) (*core.Database, *core.Database) {
	t.Helper()
	wideArcs, err := graphgen.Generate(graphgen.Params{Nodes: 300, OutDegree: 2, Locality: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	deepArcs, err := graphgen.Generate(graphgen.Params{Nodes: 200, OutDegree: 6, Locality: 20, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewDatabase(300, wideArcs), core.NewDatabase(200, deepArcs)
}

// newTenantReplica spins one tcserve stack hosting wide+deep.
func newTenantReplica(t *testing.T) *httptest.Server {
	t.Helper()
	wide, deep := tenantDBs(t)
	s, err := server.NewMulti([]server.NamedGraph{
		{Name: "wide", DB: wide},
		{Name: "deep", DB: deep},
	}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// TestRouterMultiTenantFleet pins the router's per-tenant behaviour: a
// fleet of multi-graph replicas enrolls on the folded fingerprint, reads
// carry their graph selector through to the replicas, answers match a
// standalone replica per tenant, and the router's health surfaces
// per-tenant fingerprints.
func TestRouterMultiTenantFleet(t *testing.T) {
	a := newTenantReplica(t)
	b := newTenantReplica(t)
	solo := newTenantReplica(t)
	rt, ts := newFleetRouter(t, Options{}, a.URL, b.URL)

	code, h := routerHealthz(t, ts.URL)
	if code != http.StatusOK || h["healthy_replicas"].(float64) != 2 {
		t.Fatalf("healthz: code %d %v", code, h)
	}
	graphs, ok := h["graphs"].(map[string]any)
	if !ok || len(graphs) != 2 {
		t.Fatalf("router healthz carries no per-tenant graphs block: %v", h)
	}
	wideID := graphs["wide"].(map[string]any)["fingerprint"].(string)
	deepID := graphs["deep"].(map[string]any)["fingerprint"].(string)
	if wideID == "" || deepID == "" || wideID == deepID {
		t.Fatalf("per-tenant fleet fingerprints degenerate: wide=%q deep=%q", wideID, deepID)
	}

	// Reads per tenant match a standalone multi-tenant replica.
	sources := []int32{3, 41, 97, 150}
	for _, tenant := range []string{"wide", "deep"} {
		body := map[string]any{"algorithm": "btc", "sources": sources,
			"graph": tenant, "include_successors": true}
		resp, got := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: router query status %d", tenant, resp.StatusCode)
		}
		want := postDirectQuery(t, solo.URL, body)
		// A multi-graph tcserve names the tenant in its reply; the routed
		// reply must carry the same graph field.
		if got.Graph != want.Graph || got.Graph != tenant {
			t.Fatalf("tenant %s: routed reply graph %q, solo replica %q", tenant, got.Graph, want.Graph)
		}
		for node, n := range want.SuccessorCounts {
			if got.SuccessorCounts[node] != n {
				t.Fatalf("tenant %s: successor count of %d: router %d != replica %d",
					tenant, node, got.SuccessorCounts[node], n)
			}
		}
	}

	// The plan proxy forwards the tenant selector.
	var plan struct {
		Graph string `json:"graph"`
		Mode  string `json:"mode"`
	}
	resp, err := http.Get(ts.URL + "/v1/plan?graph=deep")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if plan.Graph != "deep" || plan.Mode != "adaptive" {
		t.Fatalf("routed plan graph=%q mode=%q, want deep/adaptive", plan.Graph, plan.Mode)
	}

	// Tenant-labeled routing counters appear in the router's scrape.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, label := range []string{`tenant="wide"`, `tenant="deep"`} {
		if !strings.Contains(text, "tcr_tenant_requests_total{"+label+"}") {
			t.Errorf("router scrape missing tcr_tenant_requests_total{%s}:\n%s", label, text)
		}
	}

	// Salted routing: the same source set routes independently per tenant,
	// and both tenants' plans stay pinned (same rotation every time).
	rg := rt.snapshot()
	wideOwner := ownerOf(rg, affinityKey("wide", sources))
	deepOwner := ownerOf(rg, affinityKey("deep", sources))
	if wideOwner == nil || deepOwner == nil {
		t.Fatal("ring has no owners")
	}
	if tenantSalt("wide") == tenantSalt("deep") {
		t.Fatal("distinct tenants share a routing salt")
	}
	if tenantSalt("") != 0 {
		t.Fatal("default tenant's salt must be zero (single-graph routing unchanged)")
	}
}

// TestRouterRefusesTenantMismatch pins the enrollment rule: a replica
// whose named graph diverges from the fleet's is refused, and the refusal
// names the diverging tenant.
func TestRouterRefusesTenantMismatch(t *testing.T) {
	good := newTenantReplica(t)

	// The rogue replica serves the same tenant names but a different "deep"
	// graph.
	wide, _ := tenantDBs(t)
	otherArcs, err := graphgen.Generate(graphgen.Params{Nodes: 200, OutDegree: 6, Locality: 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rogueSrv, err := server.NewMulti([]server.NamedGraph{
		{Name: "wide", DB: wide},
		{Name: "deep", DB: core.NewDatabase(200, otherArcs)},
	}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rogue := httptest.NewServer(rogueSrv)
	defer func() { rogue.Close(); rogueSrv.Close() }()

	rt, ts := newFleetRouter(t, Options{}, good.URL, rogue.URL)
	rt.CheckNow(context.Background())

	_, h := routerHealthz(t, ts.URL)
	states := replicaStates(h)
	if states[good.URL] != "healthy" || states[rogue.URL] != "mismatched" {
		t.Fatalf("states %v: want good healthy, rogue mismatched", states)
	}
	var lastErr string
	for _, r := range h["replicas"].([]any) {
		m := r.(map[string]any)
		if m["url"] == rogue.URL {
			lastErr, _ = m["last_error"].(string)
		}
	}
	if !strings.Contains(lastErr, `"deep"`) {
		t.Fatalf("mismatch reason %q does not name the diverging tenant", lastErr)
	}
}
