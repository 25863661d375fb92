// Command tcrouter fronts a fleet of stateless tcserve replicas with the
// affinity-routing tier: consistent hashing of each query's source set
// assigns it an owning replica that answers the whole query, and replica
// health, transient-failure retries, and latency hedging keep the tier
// serving through individual replica trouble. Endpoints mirror tcserve:
//
//	POST /v1/query            routed whole to the owner of its source set
//	GET  /v1/reach?src=&dst=  routed to the owner of {src}
//	POST /v1/arc              mutation batch replicated to every enrolled replica
//	GET  /v1/plan             routed to the tenant's pinned replica
//	GET  /healthz             router + per-replica enrollment state
//	GET  /metrics             Prometheus text format (shard/hedge/retry counters)
//
// Every replica must serve the same dataset: enrollment compares the
// /healthz fingerprint and refuses replicas serving a different graph.
//
// Against a mutable fleet (tcserve -mutable), POST /v1/arc fans each
// mutation batch to every enrolled replica and fails the batch unless all
// of them acknowledge with matching fingerprints; -maxgenlag holds
// replicas whose applied write sequence trails the fleet out of the read
// ring until they catch up. See docs/DYNAMIC.md.
//
// Example (three replicas of the same generated graph):
//
//	tcserve -addr :8081 -n 2000 -seed 1 &
//	tcserve -addr :8082 -n 2000 -seed 1 &
//	tcserve -addr :8083 -n 2000 -seed 1 &
//	tcrouter -addr :8080 -replicas http://localhost:8081,http://localhost:8082,http://localhost:8083 -hedge 100ms
//
// See docs/ROUTER.md for the hashing, health, and hedging design.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcstudy/internal/router"
)

// Connection bounds of the listener: a client gets readHeaderTimeout to
// send its request headers, and an idle keep-alive connection is closed
// after idleTimeout, so stalled or abandoned connections cannot pile up.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		replicas = flag.String("replicas", "", "comma-separated tcserve base URLs (required)")
		health   = flag.Duration("health", 2*time.Second, "replica health-check interval")
		failN    = flag.Int("failafter", 3, "consecutive health failures that mark a replica out")
		okN      = flag.Int("recoverafter", 2, "consecutive health successes that re-enroll a replica")
		retries  = flag.Int("retries", 2, "retry attempts for transient replica failures (503 + transport)")
		backoff  = flag.Duration("backoff", 25*time.Millisecond, "initial retry backoff (doubles per attempt)")
		hedge    = flag.Duration("hedge", 0, "hedge a replica request to another replica after this latency (0 disables)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request replica deadline including retries")
		vnodes   = flag.Int("vnodes", 64, "consistent-hash points per replica")
		expect   = flag.String("fingerprint", "", "require this dataset fingerprint (default: first healthy replica pins it)")
		maxLag   = flag.Int("maxgenlag", 0, "exclude replicas whose write sequence trails the fleet by more than this from the read ring (0 disables)")
	)
	flag.Parse()
	if *replicas == "" {
		fatal(fmt.Errorf("-replicas is required (comma-separated tcserve base URLs)"))
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}

	rt, err := router.New(router.Options{
		Replicas:          urls,
		HealthInterval:    *health,
		FailThreshold:     *failN,
		RecoverThreshold:  *okN,
		Retries:           *retries,
		Backoff:           *backoff,
		HedgeAfter:        *hedge,
		ShardTimeout:      *timeout,
		Vnodes:            *vnodes,
		ExpectFingerprint: *expect,
		MaxGenerationLag:  *maxLag,
	})
	if err != nil {
		fatal(err)
	}
	// One synchronous sweep before listening, so a fleet that is already
	// up serves from the first request instead of the first tick.
	rt.CheckNow(context.Background())
	rt.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: rt,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("tcrouter listening on %s fronting %d replica(s) (health=%s retries=%d hedge=%s)",
		*addr, len(urls), *health, *retries, *hedge)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	rt.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("tcrouter stopped cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcrouter:", err)
	os.Exit(1)
}
