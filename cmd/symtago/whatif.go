package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/report"
	"repro/internal/rta"
	"repro/internal/whatif"
)

// cmdWhatIf runs the incremental what-if analysis: load a base
// K-Matrix, apply a change script (a supplier's revised interface
// sheet), and print which bounds moved — re-analysing only what the
// changes can reach.
func cmdWhatIf(args []string) error {
	fs := newFlagSet("whatif")
	path := kmatrixFlag(fs)
	scenario := scenarioFlag(fs)
	script := fs.String("script", "", "change script file (default: stdin)")
	workers := workersFlag(fs)
	cacheSize := fs.Int("cache", 0, "LRU budget in cost units (~one per-message result; 0 = default)")
	all := fs.Bool("all", false, "print unchanged messages too")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	cfg, err := scenarioConfig(*scenario)
	if err != nil {
		return err
	}

	var src io.Reader = os.Stdin
	from := "stdin"
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
		from = *script
	}
	changes, err := whatif.ParseScript(src)
	if err != nil {
		return err
	}
	if len(changes) == 0 {
		return usageErrf("whatif: empty change script (%s)", from)
	}

	sess := whatif.NewBusSession(k, cfg, whatif.Options{
		Store:   cache.NewLRU(*cacheSize),
		Workers: *workers,
	})
	before, err := sess.Analyze()
	if err != nil {
		return fmt.Errorf("whatif: base analysis: %w", err)
	}
	baseStats := sess.Stats()
	if err := sess.Apply(changes...); err != nil {
		return err
	}
	after, err := sess.Analyze()
	if err != nil {
		return fmt.Errorf("whatif: re-analysis: %w", err)
	}
	stats := sess.Stats()

	fmt.Printf("bus %s: %d messages, %d change(s) from %s\n\n",
		k.BusName, len(k.Messages), len(changes), from)
	for _, c := range changes {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println()

	fmtWCRT := func(d time.Duration) string {
		if d == rta.Unschedulable {
			return "unbounded"
		}
		return d.String()
	}
	rows := make([][]string, 0, len(after.Results))
	changed, added, removed := 0, 0, 0
	for _, r := range after.Results {
		old := before.ByName(r.Message.Name)
		status := "unchanged"
		delta := "-"
		switch {
		case old == nil:
			status = "ADDED"
			added++
		case old.WCRT != r.WCRT || old.Schedulable != r.Schedulable:
			status = "changed"
			changed++
			if old.WCRT != rta.Unschedulable && r.WCRT != rta.Unschedulable {
				delta = fmt.Sprintf("%+v", r.WCRT-old.WCRT)
			}
		default:
			if !*all {
				continue
			}
		}
		ok := "MISS"
		if r.Schedulable {
			ok = "ok"
		}
		oldStr := "-"
		if old != nil {
			oldStr = fmtWCRT(old.WCRT)
		}
		rows = append(rows, []string{
			r.Message.Name, r.Message.Frame.ID.String(),
			oldStr, fmtWCRT(r.WCRT), delta, ok, status,
		})
	}
	for _, r := range before.Results {
		if after.ByName(r.Message.Name) == nil {
			removed++
			rows = append(rows, []string{
				r.Message.Name, r.Message.Frame.ID.String(),
				fmtWCRT(r.WCRT), "-", "-", "-", "REMOVED",
			})
		}
	}
	fmt.Print(report.Table(
		[]string{"message", "id", "WCRT before", "WCRT after", "delta", "sched", "status"}, rows))

	reanalysed := stats.Misses - baseStats.Misses
	fmt.Printf("\n%d of %d bounds changed (%d added, %d removed); re-analysed %d message(s), reused %d\n",
		changed, len(after.Results)-added, added, removed,
		reanalysed, stats.Hits-baseStats.Hits)
	fmt.Printf("deadline misses: %d after (%d before)\n", after.MissCount(), before.MissCount())
	fmt.Printf("cache: %d entries, %d hits, %d misses, %d evictions\n",
		stats.Store.Entries, stats.Store.Hits, stats.Store.Misses, stats.Store.Evictions)
	return nil
}
