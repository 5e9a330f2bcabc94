package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		out <- buf.String()
	}()
	runErr := fn()
	w.Close()
	return <-out, runErr
}

// TestCampaignWarmCacheDir runs the same campaign twice over one
// -cache-dir: the reports are identical apart from the disk-cache and
// wall-time lines, and the warm run misses the disk cache not once.
func TestCampaignWarmCacheDir(t *testing.T) {
	args := []string{"-n", "16", "-seed", "1", "-cache-dir", filepath.Join(t.TempDir(), "l2")}
	var reports [2]string
	var diskLines [2]string
	for i := range reports {
		out, err := captureStdout(t, func() error { return cmdCampaign(args) })
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out)
		}
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			switch {
			case strings.HasPrefix(line, "disk cache:"):
				diskLines[i] = line
			case strings.HasPrefix(line, "wall time"):
			default:
				kept = append(kept, line)
			}
		}
		reports[i] = strings.Join(kept, "\n")
	}
	if diskLines[0] == "" || diskLines[1] == "" {
		t.Fatalf("no disk cache line: %q", diskLines)
	}
	if reports[0] != reports[1] {
		t.Fatalf("cold and warm reports differ:\n--- cold\n%s\n--- warm\n%s", reports[0], reports[1])
	}
	if !strings.HasSuffix(diskLines[1], " / 0 misses") {
		t.Fatalf("warm run missed the disk cache: %s", diskLines[1])
	}
}

// TestCacheServerRequiresCacheDir: cacheserver without -cache-dir is a
// usage error, exit 2 under docs/cli.md.
func TestCacheServerRequiresCacheDir(t *testing.T) {
	err := cmdCacheServer(nil)
	if err == nil || !isUsageError(err) {
		t.Fatalf("cmdCacheServer() = %v, want a usage error", err)
	}
}

// TestExitCodeContract table-tests docs/cli.md's exit codes: unknown
// flags and out-of-range values are usage errors (exit 2), a spec file
// that cannot be read is a runtime failure (exit 1). None of these
// cases gets as far as running anything.
func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-spec.toml")
	specFile := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tooManyChanges := specFile("changes.toml", "max_changes = 2000000\n")
	emptyMessages := specFile("messages.toml", "min_messages = 9\nmax_messages = 5\n")
	for _, tc := range []struct {
		name  string
		run   func([]string) error
		args  []string
		usage bool
	}{
		{"campaign removed -pipeline-depth", cmdCampaign, []string{"-pipeline-depth", "2"}, true},
		{"serve removed -pipeline-depth", cmdServe, []string{"-pipeline-depth", "2"}, true},
		{"campaign oversized -shard", cmdCampaign, []string{"-shard", "4097"}, true},
		{"serve oversized -shard", cmdServe, []string{"-shard", "4097"}, true},
		{"campaign negative -n", cmdCampaign, []string{"-n", "-1"}, true},
		{"worker unknown flag", cmdWorker, []string{"-no-such-flag"}, true},
		{"campaign -spec max_changes beyond its limit", cmdCampaign, []string{"-spec", tooManyChanges}, true},
		{"campaign -spec empty message range", cmdCampaign, []string{"-spec", emptyMessages}, true},
		{"simulate unknown -controller", cmdSimulate, []string{"-controller", "bogus"}, true},
		{"netsim zero -seeds", cmdNetsim, []string{"-seeds", "0"}, true},
		{"campaign missing -spec file", cmdCampaign, []string{"-spec", missing}, false},
		{"simulate missing -kmatrix file", cmdSimulate, []string{"-kmatrix", missing}, false},
	} {
		err := tc.run(tc.args)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if isUsageError(err) != tc.usage {
			t.Errorf("%s: isUsageError(%v) = %t, want %t", tc.name, err, !tc.usage, tc.usage)
		}
	}
}
