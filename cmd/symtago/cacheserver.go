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
	"repro/internal/cacheserver"
)

// cmdCacheServer runs the fleet-shared cache service: a small HTTP
// process over an on-disk content-addressed store, speaking the
// GET/PUT/HEAD record protocol that `-remote-cache` clients (workers,
// campaigns, serve) consume. Popular K-Matrix configurations are
// analyzed once fleet-wide; everyone else fetches the converged record
// by content hash.
func cmdCacheServer(args []string) error {
	fs := newFlagSet("cacheserver")
	addr := fs.String("addr", "127.0.0.1:8481", "listen address")
	cacheDir := fs.String("cache-dir", "", "record store directory (required)")
	cacheBytes := fs.Int64("cache-bytes", 0, "record store byte budget (0 = 256 MiB)")
	pprofAddr := fs.String("pprof-addr", "", "expose net/http/pprof on this extra address (empty = off)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *cacheDir == "" {
		return usageErrf("cacheserver: -cache-dir is required")
	}
	disk, err := cache.NewDisk(*cacheDir, *cacheBytes)
	if err != nil {
		return fmt.Errorf("cacheserver: %w", err)
	}
	defer disk.Close()
	startPprof("cacheserver", *pprofAddr)

	srv := cacheserver.New(disk)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
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

	st := disk.Stats()
	fmt.Printf("symtago cacheserver: listening on http://%s (%d records, %d B resident)\n",
		*addr, st.Entries, st.Bytes)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Printf("symtago cacheserver: %v — shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "symtago cacheserver: shutdown: %v\n", err)
		}
		st := disk.Stats()
		fmt.Printf("symtago cacheserver: %d records, %d B, %d hits / %d misses, %d quarantined\n",
			st.Entries, st.Bytes, st.Hits, st.Misses, st.Corrupt)
		return nil
	}
}
