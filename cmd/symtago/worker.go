package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/distrib"
)

// cmdWorker runs a shard worker: a small HTTP process that executes
// contiguous campaign shard ranges on behalf of a coordinating
// `symtago campaign -workers-addr` or `symtago serve -workers-addr`.
// Workers generate only the requested range from the spec in each
// request and return its partial fingerprint, so no scenario travels
// and the coordinator can verify the corpus the rows came from; with
// -cache-dir their converged results persist across restarts and warm
// reruns are served from disk.
func cmdWorker(args []string) error {
	fs := newFlagSet("worker")
	addr := fs.String("addr", "127.0.0.1:8480", "listen address")
	workers := workersFlag(fs)
	cacheDir := fs.String("cache-dir", "", "on-disk second-level result cache (empty = memory only)")
	cacheBytes := fs.Int64("cache-bytes", 0, "disk cache budget in bytes (0 = 256 MiB)")
	remoteCache := remoteCacheFlag(fs)
	pprofAddr := fs.String("pprof-addr", "", "expose net/http/pprof on this extra address (empty = off)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	startPprof("worker", *pprofAddr)

	shared, err := cache.OpenShared(*cacheDir, *cacheBytes, *remoteCache)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	// Close flushes the remote write-behind queue so results computed
	// on this worker reach the fleet tier before the process exits.
	defer shared.Close()
	worker := distrib.NewWorker(distrib.WorkerConfig{Workers: *workers, Cache: shared.Store})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           worker.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		err := hs.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errCh <- err
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	fmt.Printf("symtago worker: listening on http://%s (POST %s)\n", *addr, distrib.ShardPath)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Printf("symtago worker: %v — shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "symtago worker: shutdown: %v\n", err)
		}
		fmt.Printf("symtago worker: served %d shards\n", worker.ShardsServed())
		if shared.Disk != nil {
			st := shared.Disk.Stats()
			fmt.Printf("symtago worker: disk cache %d entries, %d B, %d hits / %d misses\n",
				st.Entries, st.Bytes, st.Hits, st.Misses)
		}
		if shared.Remote != nil {
			rs := shared.Remote.RemoteStats()
			fmt.Printf("symtago worker: remote cache %d hits / %d misses, %d errors, breaker %s\n",
				rs.Hits, rs.Misses, rs.Errors, rs.Breaker)
		}
		return nil
	}
}
