package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

func TestNetworkValidationBoundsDominate(t *testing.T) {
	nv, _, err := RunNetworkValidation(NetworkValidationParams{
		Seeds: 6, Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nv.Violations != 0 {
		t.Errorf("violations = %d, want 0", nv.Violations)
	}
	if nv.Losses != 0 {
		t.Errorf("losses = %d on the dimensioned queue, want 0", nv.Losses)
	}
	if len(nv.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(nv.Paths))
	}
	for _, row := range nv.Paths {
		if row.Completed == 0 {
			t.Errorf("path %s never completed", row.Name)
		}
		if row.Observed <= 0 || row.Observed > row.Bound {
			t.Errorf("path %s observed %v outside (0, %v]", row.Name, row.Observed, row.Bound)
		}
	}
	out := nv.Render()
	if !strings.Contains(out, "wheel-e2e") || !strings.Contains(out, "dominates") {
		t.Errorf("render missing expected sections:\n%s", out)
	}
}

func TestNetworkValidationShallowLosesWherePredicted(t *testing.T) {
	nv, _, err := RunNetworkValidation(NetworkValidationParams{
		Seeds: 4, Duration: 1 * time.Second, Shallow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Loss must occur — and only because the analysis predicted the
	// depth-1 FIFO can overflow; that is not a violation.
	if nv.Losses == 0 {
		t.Error("depth-1 FIFO lost nothing")
	}
	if nv.Violations != 0 {
		t.Errorf("violations = %d; predicted loss must not count as one", nv.Violations)
	}
	predicted := false
	for _, row := range nv.Gateways {
		if row.Name == "gwPT" {
			predicted = row.LossPredicted
		}
	}
	if !predicted {
		t.Error("analysis did not flag the shallow FIFO")
	}
}

func TestNetworkValidationDeterministicAcrossWorkers(t *testing.T) {
	p := NetworkValidationParams{Seeds: 4, Duration: 300 * time.Millisecond}
	p.Workers = 1
	ref, _, err := RunNetworkValidation(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		p.Workers = workers
		got, _, err := RunNetworkValidation(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("validation differs between 1 and %d workers", workers)
		}
	}
}

func TestNetworkValidationTraceGantt(t *testing.T) {
	_, traces, err := RunNetworkValidation(NetworkValidationParams{
		Seeds: 1, Duration: 200 * time.Millisecond, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("traces for %d buses, want 3", len(traces))
	}
	out := report.NetworkGantt(traces, 0, 50*time.Millisecond, 72)
	for _, want := range []string{"== chassis ==", "== powertrain ==", "== backbone ==", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("network gantt missing %q:\n%s", want, out)
		}
	}
}
