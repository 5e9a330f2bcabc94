package main

import (
	"bytes"
	"io"
	"net"
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

// TestExitCodeContract table-tests docs/cli.md's exit codes: unknown
// flags, unknown commands and out-of-range values are usage errors
// (exit 2), checked before any work starts; a file that cannot be read,
// output that cannot be written and a listen address already taken
// are runtime failures (exit 1). Every subcommand has at least one
// case of each kind. The taken address is a loopback listener of the
// test's own, and serve and worker must fail on it before printing
// their banner.
func TestExitCodeContract(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	taken := held.Addr().String()
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
	emptyScript := specFile("empty.script", "# no changes\n")
	overflowing := specFile("overflow.csv", "#bus,pt,500000\n"+
		"name,id,format,dlc,period_us,jitter_us,jitter_known,deadline_us,sender,receivers\n"+
		"A,0x1,standard,8,18446744073709552,0,false,0,ECU1,\n")
	for _, tc := range []struct {
		name  string
		run   func([]string) error
		args  []string
		usage bool
		// unwritable runs the case with an os.Stdout that fails every
		// write.
		unwritable bool
		// silent requires the case to print nothing to os.Stdout.
		silent bool
	}{
		{name: "cacheserver removed", run: func(args []string) error { return run("cacheserver", args) }, usage: true},
		{name: "campaign removed -remote-cache", run: cmdCampaign, args: []string{"-remote-cache", "http://127.0.0.1:1"}, usage: true},
		{name: "worker removed -remote-cache", run: cmdWorker, args: []string{"-remote-cache", "http://127.0.0.1:1"}, usage: true},
		{name: "serve removed -remote-cache", run: cmdServe, args: []string{"-remote-cache", "http://127.0.0.1:1"}, usage: true},
		{name: "serve -addr already taken", run: cmdServe, args: []string{"-addr", taken}, silent: true},
		{name: "worker -addr already taken", run: cmdWorker, args: []string{"-addr", taken}, silent: true},
		{name: "campaign removed -pipeline-depth", run: cmdCampaign, args: []string{"-pipeline-depth", "2"}, usage: true},
		{name: "serve removed -pipeline-depth", run: cmdServe, args: []string{"-pipeline-depth", "2"}, usage: true},
		{name: "campaign oversized -shard", run: cmdCampaign, args: []string{"-shard", "4097"}, usage: true},
		{name: "serve oversized -shard", run: cmdServe, args: []string{"-shard", "4097"}, usage: true},
		{name: "campaign negative -n", run: cmdCampaign, args: []string{"-n", "-1"}, usage: true},
		{name: "worker unknown flag", run: cmdWorker, args: []string{"-no-such-flag"}, usage: true},
		{name: "campaign -spec max_changes beyond its limit", run: cmdCampaign, args: []string{"-spec", tooManyChanges}, usage: true},
		{name: "campaign -spec empty message range", run: cmdCampaign, args: []string{"-spec", emptyMessages}, usage: true},
		{name: "simulate unknown -controller", run: cmdSimulate, args: []string{"-controller", "bogus"}, usage: true},
		{name: "simulate negative -duration", run: cmdSimulate, args: []string{"-duration", "-1s"}, usage: true},
		{name: "netsim zero -seeds", run: cmdNetsim, args: []string{"-seeds", "0"}, usage: true},
		{name: "netsim zero -duration", run: cmdNetsim, args: []string{"-duration", "0s"}, usage: true},
		{name: "figures unknown -fig", run: cmdFigures, args: []string{"-fig", "7"}, usage: true},
		{name: "load unexpected argument", run: cmdLoad, args: []string{"extra"}, usage: true},
		{name: "analyze negative -jitter-scale", run: cmdAnalyze, args: []string{"-jitter-scale", "-1"}, usage: true},
		{name: "analyze NaN -jitter-scale", run: cmdAnalyze, args: []string{"-jitter-scale", "NaN"}, usage: true},
		{name: "sensitivity unknown flag", run: cmdSensitivity, args: []string{"-scenario", "best"}, usage: true},
		{name: "loss unknown -scenario", run: cmdLoss, args: []string{"-scenario", "bogus"}, usage: true},
		{name: "optimize negative -generations", run: cmdOptimize, args: []string{"-generations", "-1"}, usage: true},
		{name: "validate zero -seeds", run: cmdValidate, args: []string{"-seeds", "0"}, usage: true},
		{name: "validate negative -duration", run: cmdValidate, args: []string{"-duration", "-1s"}, usage: true},
		{name: "contract without subcommand", run: cmdContract, usage: true},
		{name: "contract unknown subcommand", run: cmdContract, args: []string{"bogus"}, usage: true},
		{name: "contract check without files", run: cmdContract, args: []string{"check"}, usage: true},
		{name: "contract requirements negative -scale", run: cmdContract, args: []string{"requirements", "-scale", "-0.5"}, usage: true},
		{name: "whatif unknown -scenario", run: cmdWhatIf, args: []string{"-scenario", "bogus"}, usage: true},
		{name: "whatif empty script", run: cmdWhatIf, args: []string{"-script", emptyScript}, usage: true},
		{name: "tolerance negative -top", run: cmdTolerance, args: []string{"-top", "-5"}, usage: true},
		{name: "tolerance negative -operating", run: cmdTolerance, args: []string{"-operating", "-1"}, usage: true},
		{name: "extend negative -operating", run: cmdExtend, args: []string{"-operating", "-2"}, usage: true},
		{name: "extend negative -period", run: cmdExtend, args: []string{"-period", "-1ms"}, usage: true},
		{name: "extend -dlc 9", run: cmdExtend, args: []string{"-dlc", "9"}, usage: true},
		{name: "extend zero -max", run: cmdExtend, args: []string{"-max", "0"}, usage: true},
		{name: "campaign missing -spec file", run: cmdCampaign, args: []string{"-spec", missing}},
		{name: "simulate missing -kmatrix file", run: cmdSimulate, args: []string{"-kmatrix", missing}},
		{name: "figures unwritable -csv output", run: cmdFigures, args: []string{"-fig", "4", "-csv"}, unwritable: true},
		{name: "load missing -kmatrix file", run: cmdLoad, args: []string{"-kmatrix", missing}},
		{name: "analyze overflowing -kmatrix period", run: cmdAnalyze, args: []string{"-kmatrix", overflowing}},
		{name: "sensitivity missing -kmatrix file", run: cmdSensitivity, args: []string{"-kmatrix", missing}},
		{name: "loss missing -kmatrix file", run: cmdLoss, args: []string{"-kmatrix", missing}},
		{name: "optimize missing -kmatrix file", run: cmdOptimize, args: []string{"-kmatrix", missing}},
		{name: "validate unwritable output", run: cmdValidate, args: []string{"-seeds", "1", "-duration", "10ms"}, unwritable: true},
		{name: "contract check missing files", run: cmdContract, args: []string{"check", "-datasheet", missing, "-spec", missing}},
		{name: "whatif missing -script file", run: cmdWhatIf, args: []string{"-script", missing}},
		{name: "tolerance missing -kmatrix file", run: cmdTolerance, args: []string{"-kmatrix", missing}},
		{name: "extend missing -kmatrix file", run: cmdExtend, args: []string{"-kmatrix", missing}},
	} {
		var err error
		switch {
		case tc.unwritable:
			err = withUnwritableStdout(t, func() error { return tc.run(tc.args) })
		case tc.silent:
			var out string
			out, err = captureStdout(t, func() error { return tc.run(tc.args) })
			if out != "" {
				t.Errorf("%s: printed %q", tc.name, out)
			}
		default:
			err = tc.run(tc.args)
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if isUsageError(err) != tc.usage {
			t.Errorf("%s: isUsageError(%v) = %t, want %t", tc.name, err, !tc.usage, tc.usage)
		}
	}
}

// withUnwritableStdout runs fn with os.Stdout open read-only, so every
// write to it fails.
func withUnwritableStdout(t *testing.T, fn func() error) error {
	t.Helper()
	f, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	return fn()
}
