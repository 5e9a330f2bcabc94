package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/campaign"
)

// The output checks run outside the timed phase. Each returns nil when
// the output is correct and an error naming the first difference.

// checkCampaign verifies that a campaign report holds every scenario of
// its corpus, in order, under the corpus fingerprint the spec defines.
func checkCampaign(rep *campaign.Report, count int, fingerprint string) error {
	if rep.Fingerprint != fingerprint {
		return fmt.Errorf("report fingerprint %s, spec defines %s", rep.Fingerprint, fingerprint)
	}
	if len(rep.Rows) != count || rep.Scenarios != count {
		return fmt.Errorf("report holds %d rows for %d scenarios, corpus has %d", len(rep.Rows), rep.Scenarios, count)
	}
	for i := range rep.Rows {
		if rep.Rows[i].Index != i {
			return fmt.Errorf("row %d carries scenario %d", i, rep.Rows[i].Index)
		}
	}
	return nil
}

// rowText is the exact text of a row: every field, floats at full
// precision.
func rowText(r *campaign.ScenarioResult) string { return fmt.Sprintf("%+v", *r) }

// checkSharedRows verifies that a rerun computed every scenario it
// shares with the cold run byte for byte as the cold run did.
func checkSharedRows(cold, warm []campaign.ScenarioResult) error {
	if len(warm) < len(cold) {
		return fmt.Errorf("rerun holds %d rows, cold run %d", len(warm), len(cold))
	}
	for i := range cold {
		if a, b := rowText(&cold[i]), rowText(&warm[i]); a != b {
			return fmt.Errorf("scenario %d: rerun row %s differs from cold row %s", i, b, a)
		}
	}
	return nil
}

// checkNoMisses verifies that a rerun of scenarios already in the L2
// was served from it without a single miss.
func checkNoMisses(st cache.Stats) error {
	if st.Misses != 0 {
		return fmt.Errorf("rerun of the cached corpus missed the L2 %d times (%d hits)", st.Misses, st.Hits)
	}
	if st.Hits == 0 {
		return fmt.Errorf("rerun of the cached corpus never reached the L2")
	}
	return nil
}

// reportText is the exact text of a whole report.
func reportText(rep *campaign.Report) string { return fmt.Sprintf("%+v", *rep) }

// checkReport verifies that a report is byte-identical to the reference
// text of a local run.
func checkReport(want string, rep *campaign.Report) error {
	got := reportText(rep)
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Errorf("folded report differs from the local run at byte %d: %q vs %q",
		i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}
