package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/report"
	"repro/internal/sensitivity"
	"repro/internal/supplychain"
)

// cmdContract implements the supply-chain artefact exchange:
//
//	symtago contract requirements [-kmatrix f] [-scale 0.25] [-out spec.json]
//	symtago contract guarantees   [-kmatrix f] [-scenario best|worst] [-out ds.json]
//	symtago contract check        -datasheet ds.json -spec spec.json
func cmdContract(args []string) error {
	if len(args) < 1 {
		return usageErrf("contract needs a subcommand: requirements, guarantees or check")
	}
	switch args[0] {
	case "requirements":
		return contractRequirements(args[1:])
	case "guarantees":
		return contractGuarantees(args[1:])
	case "check":
		return contractCheck(args[1:])
	default:
		return usageErrf("unknown contract subcommand %q", args[0])
	}
}

func contractRequirements(args []string) error {
	fs := newFlagSet("contract requirements")
	path := kmatrixFlag(fs)
	scale := fs.Float64("scale", 0.25, "required send-jitter bound as fraction of the period")
	out := fs.String("out", "", "output file (default stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if !(*scale >= 0) {
		return badValue("contract requirements", "scale", *scale, "a scale of 0 or more")
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	spec := supplychain.OEMSendRequirements(k, *scale, nil)
	return writeArtifact(*out, spec.WriteJSON)
}

func contractGuarantees(args []string) error {
	fs := newFlagSet("contract guarantees")
	path := kmatrixFlag(fs)
	scenario := scenarioFlag(fs)
	out := fs.String("out", "", "output file (default stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg, err := scenarioConfig(*scenario)
	if err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	ds, err := supplychain.OEMDeliveryGuarantees(k, cfg)
	if err != nil {
		return err
	}
	return writeArtifact(*out, ds.WriteJSON)
}

func contractCheck(args []string) error {
	fs := newFlagSet("contract check")
	dsPath := fs.String("datasheet", "", "data sheet JSON (required)")
	specPath := fs.String("spec", "", "requirement spec JSON (required)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dsPath == "" || *specPath == "" {
		return usageErrf("contract check needs -datasheet and -spec")
	}
	dsFile, err := os.Open(*dsPath)
	if err != nil {
		return err
	}
	defer dsFile.Close()
	ds, err := supplychain.ReadDataSheetJSON(dsFile)
	if err != nil {
		return err
	}
	specFile, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	defer specFile.Close()
	spec, err := supplychain.ReadSpecJSON(specFile)
	if err != nil {
		return err
	}
	rep := supplychain.Check(ds, spec)
	fmt.Printf("data sheet by %s against requirements by %s: %s\n", ds.By, spec.By, rep.String())
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION %s: %s\n", v.Message, v.Reason)
	}
	for _, m := range rep.Missing {
		fmt.Printf("  MISSING   %s: no guarantee published\n", m)
	}
	if !rep.OK() {
		return fmt.Errorf("%d requirements unsatisfied", len(rep.Violations)+len(rep.Missing))
	}
	return nil
}

// writeArtifact writes via the given encoder to a file or stdout.
func writeArtifact(path string, write func(w io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// cmdTolerance prints the per-message jitter tolerance table.
func cmdTolerance(args []string) error {
	fs := newFlagSet("tolerance")
	path := kmatrixFlag(fs)
	scenario := scenarioFlag(fs)
	operating := fs.Float64("operating", 0.10, "jitter scale of all other messages")
	top := fs.Int("top", 15, "show only the most critical N messages (0 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if !(*operating >= 0) {
		return badValue("tolerance", "operating", *operating, "a scale of 0 or more")
	}
	if *top < 0 {
		return badValue("tolerance", "top", *top, "0 (all) or more")
	}
	cfg, err := scenarioConfig(*scenario)
	if err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	table, err := sensitivity.ToleranceTable(k, sensitivity.SweepConfig{Analysis: cfg},
		*operating, 2.0, 0.01)
	if err != nil {
		return err
	}
	if *top > 0 && len(table) > *top {
		table = table[:*top]
	}
	rows := make([][]string, 0, len(table))
	for _, t := range table {
		m := k.ByName(t.Message)
		val := fmt.Sprintf("%.0f%% (%v)", 100*t.MaxJitterScale,
			time.Duration(t.MaxJitterScale*float64(m.Period)).Round(time.Microsecond))
		if t.MaxJitterScale < 0 {
			val = "infeasible"
		}
		rows = append(rows, []string{t.Message, m.Period.String(), val})
	}
	fmt.Print(report.Table([]string{"message", "period", "max send jitter"}, rows))
	fmt.Printf("\nothers held at %.0f%% jitter, %s scenario; these bounds become the\nOEM's supplier requirements (Figure 6).\n",
		100**operating, *scenario)
	return nil
}

// cmdExtend answers "how many more messages fit?".
func cmdExtend(args []string) error {
	fs := newFlagSet("extend")
	path := kmatrixFlag(fs)
	scenario := scenarioFlag(fs)
	operating := fs.Float64("operating", 0.10, "operating jitter scale")
	period := fs.Duration("period", 20*time.Millisecond, "period of the added messages")
	dlc := fs.Int("dlc", 8, "payload length of the added messages")
	max := fs.Int("max", 128, "search budget")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case !(*operating >= 0):
		return badValue("extend", "operating", *operating, "a scale of 0 or more")
	case *period <= 0:
		return badValue("extend", "period", *period, "a positive period")
	case *dlc < 0 || *dlc > can.MaxPayload:
		return badValue("extend", "dlc", *dlc, fmt.Sprintf("a payload length of 0 to %d", can.MaxPayload))
	case *max < 1:
		return badValue("extend", "max", *max, "a positive budget")
	}
	cfg, err := scenarioConfig(*scenario)
	if err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	template := kmatrix.Message{
		Name: "NewMsg", ID: 1, DLC: *dlc, Period: *period, Sender: "NewECU",
	}
	n, err := sensitivity.Extensibility(k, template, sensitivity.SweepConfig{Analysis: cfg},
		*operating, *max)
	if err != nil {
		return err
	}
	switch {
	case n < 0:
		fmt.Printf("the bus is already unschedulable at %.0f%% jitter (%s scenario)\n",
			100**operating, *scenario)
	case n == *max:
		fmt.Printf("at least %d additional %v/%d-byte messages fit (search budget reached)\n",
			n, *period, *dlc)
	default:
		fmt.Printf("%d additional %v/%d-byte messages fit at %.0f%% jitter (%s scenario);\nadding %d breaks a deadline\n",
			n, *period, *dlc, 100**operating, *scenario, n+1)
	}
	return nil
}
