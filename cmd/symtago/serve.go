package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/whatif"
)

// cmdServe runs the long-running analysis service — the paper's
// iterative OEM/supplier exchange as a concurrent multi-tenant
// endpoint with persistent what-if sessions behind admission control —
// or, with -selftest, the seeded storm driver proving that concurrent
// tenants get byte-identical responses, shed load gets 429+Retry-After
// and a drained campaign resumes bit-identically.
func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8479", "listen address")
	workers := workersFlag(fs)
	cache := fs.Int("cache", 0, "shared what-if store budget in cost units (0 = default)")
	ttl := fs.Duration("ttl", 0, "idle session lifetime (0 = default 15m)")
	maxClients := fs.Int("max-clients", 0, "concurrently executing requests (0 = 2x GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "requests queued for a slot before shedding (0 = 256)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant request rate per second (0 = 250, negative = unlimited)")
	tenantQuota := fs.Int("tenant-quota", 0, "live sessions per tenant (0 = 64, negative = unlimited)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request budget incl. queueing (0 = 30s)")
	cacheDir := fs.String("cache-dir", "", "on-disk second-level result cache (empty = memory only)")
	cacheBytes := fs.Int64("cache-bytes", 0, "disk cache budget in bytes (0 = 256 MiB)")
	workersAddr := fs.String("workers-addr", "", "comma-separated worker base URLs; campaigns fan out over them")
	shardSize := shardFlag(fs)
	shardTimeout := fs.Duration("shard-timeout", 0, "per-attempt shard deadline (0 = 2m)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of requests traced (0 = default 0.01, negative = off; X-Trace-Id always traces)")
	traceBuffer := fs.Int("trace-buffer", 0, "traces retained for GET /v1/trace/{id} (0 = 64)")
	flight := fs.Int("flight", 0, "slowest operations kept by the flight recorder (0 = 32, negative = off)")
	pprofAddr := fs.String("pprof-addr", "", "expose net/http/pprof on this extra address (empty = off)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "SIGTERM: budget for in-flight campaigns before checkpointing")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for drain checkpoints; restored on startup (empty = discard)")
	selftest := fs.Bool("selftest", false, "run the concurrent robustness selftest and exit")
	clients := fs.Int("clients", 8, "selftest: concurrent clients")
	revisions := fs.Int("revisions", 50, "selftest: max change-script length per client")
	seed := fs.Int64("seed", 7, "selftest: scenario seed")
	tenants := fs.Int("tenants", 8, "selftest: tenant identities the clients spread over")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkShard("serve", *shardSize); err != nil {
		return err
	}

	cfg := service.Config{
		StoreCapacity:  *cache,
		SessionTTL:     *ttl,
		Workers:        *workers,
		MaxClients:     *maxClients,
		QueueDepth:     *queueDepth,
		TenantRate:     *tenantRate,
		TenantQuota:    *tenantQuota,
		RequestTimeout: *reqTimeout,
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheBytes,
		WorkerAddrs:    splitAddrs(*workersAddr),
		ShardSize:      *shardSize,
		ShardTimeout:   *shardTimeout,
		TraceSample:    *traceSample,
		TraceBuffer:    *traceBuffer,
		FlightSlowest:  *flight,
	}

	if *selftest {
		if *clients < 1 || *revisions < 1 {
			return usageErrf("serve: -clients and -revisions must be positive")
		}
		res, err := service.LoadTest(service.LoadTestConfig{
			Clients: *clients, Revisions: *revisions, Seed: *seed,
			Tenants: *tenants, Workers: *workers, Server: cfg,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if !res.Passed() {
			return fmt.Errorf("serve selftest failed")
		}
		return nil
	}

	// Bind first: an address already taken fails before a checkpoint
	// resumes or a banner claims to be listening.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer ln.Close()
	srv, err := service.New(cfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	startPprof("serve", *pprofAddr)
	if *checkpointDir != "" {
		restored, err := srv.RestoreCampaigns(*checkpointDir)
		if err != nil {
			return fmt.Errorf("serve: restoring campaigns: %w", err)
		}
		if restored > 0 {
			fmt.Printf("symtago serve: resumed %d checkpointed campaign(s) from %s\n",
				restored, *checkpointDir)
		}
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// A slowloris must not wedge the process: bound every phase of a
		// connection's life.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGTERM/SIGINT runs the drain protocol: stop admitting, give
	// in-flight work -drain-timeout to finish, checkpoint the rest,
	// exit 0.
	errCh := make(chan error, 1)
	go func() {
		err := hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errCh <- err
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	fmt.Printf("symtago serve: listening on http://%s (sessions expire after %v idle)\n",
		*addr, sessionTTL(*ttl))
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Printf("symtago serve: %v — draining (budget %v)\n", sig, *drainTimeout)
		srv.StartDraining()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "symtago serve: shutdown: %v\n", err)
		}
		checkpointed, err := srv.Drain(drainCtx, *checkpointDir)
		if err != nil {
			return fmt.Errorf("serve: drain: %w", err)
		}
		if checkpointed > 0 {
			fmt.Printf("symtago serve: checkpointed %d campaign(s) to %s\n",
				checkpointed, *checkpointDir)
		}
		fmt.Println("symtago serve: drained cleanly")
		return nil
	}
}

// sessionTTL echoes the effective TTL for the startup banner.
func sessionTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return whatif.DefaultSessionTTL
	}
	return ttl
}
