// Command symtago is the command-line front end of the reproduction: it
// loads a K-Matrix (or the built-in case study), runs the analyses of
// the paper and regenerates its figures.
//
// Usage:
//
//	symtago figures  [-fig 1..6|all] [-quick]
//	symtago load     [-kmatrix file]
//	symtago analyze  [-kmatrix file] [-scenario best|worst] [-jitter-scale s]
//	symtago sensitivity [-kmatrix file]
//	symtago loss     [-kmatrix file] [-scenario best|worst] [-csv]
//	symtago optimize [-kmatrix file] [-seed n] [-generations n] [-out file]
//	symtago simulate [-kmatrix file] [-duration d] [-controller full|basic] [-seed n]
//	symtago validate [-seeds n] [-duration d] [-controller full|basic] [-workers n]
//	symtago netsim   [-seeds n] [-duration d] [-workers n] [-shallow] [-gantt] [-window d]
//	symtago contract requirements|guarantees|check ...
//	symtago whatif   [-kmatrix file] [-scenario best|worst] [-script file] [-all]
//	symtago tolerance [-kmatrix file] [-operating s] [-top n]
//	symtago extend   [-kmatrix file] [-period d] [-dlc n] [-operating s]
//	symtago campaign [-n count] [-seed n] [-spec file] [-workers n] [-seeds n]
//	                 [-duration d] [-csv file] [-corpus file] [-quick]
//	                 [-workers-addr urls] [-shard n] [-shard-timeout d]
//	                 [-cache-dir dir] [-cache-bytes n]
//	                 [-trace-out file] [-flight n]
//	symtago serve    [-addr host:port] [-workers n] [-cache n] [-ttl d]
//	                 [-max-clients n] [-queue-depth n] [-tenant-rate r]
//	                 [-tenant-quota n] [-request-timeout d] [-drain-timeout d]
//	                 [-checkpoint-dir dir] [-cache-dir dir] [-cache-bytes n]
//	                 [-workers-addr urls] [-shard n] [-shard-timeout d]
//	                 [-trace-sample f] [-trace-buffer n] [-flight n]
//	                 [-pprof-addr host:port]
//	                 [-selftest [-clients n] [-revisions n] [-seed n] [-tenants n]]
//	symtago worker   [-addr host:port] [-workers n] [-cache-dir dir]
//	                 [-cache-bytes n] [-pprof-addr host:port]
//
// A missing -kmatrix selects the built-in synthetic power-train matrix
// (the case-study substitute documented in DESIGN.md).
//
// Exit codes are uniform across subcommands: 0 on success, 1 on a
// runtime failure (including failed validation checks), 2 on a
// command-line usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// The flag set already printed its usage.
			return
		}
		fmt.Fprintln(os.Stderr, "symtago:", err)
		if isUsageError(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run dispatches one subcommand. An unknown command is a usage error,
// reported after the command list.
func run(cmd string, args []string) error {
	switch cmd {
	case "figures":
		return cmdFigures(args)
	case "load":
		return cmdLoad(args)
	case "analyze":
		return cmdAnalyze(args)
	case "sensitivity":
		return cmdSensitivity(args)
	case "loss":
		return cmdLoss(args)
	case "optimize":
		return cmdOptimize(args)
	case "simulate":
		return cmdSimulate(args)
	case "validate":
		return cmdValidate(args)
	case "netsim":
		return cmdNetsim(args)
	case "contract":
		return cmdContract(args)
	case "whatif":
		return cmdWhatIf(args)
	case "tolerance":
		return cmdTolerance(args)
	case "extend":
		return cmdExtend(args)
	case "campaign":
		return cmdCampaign(args)
	case "serve":
		return cmdServe(args)
	case "worker":
		return cmdWorker(args)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return usageErrf("unknown command %q", cmd)
	}
}

// usageError marks command-line mistakes; main exits 2 for them, 1 for
// runtime failures.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// usageErrf returns a formatted usage error.
func usageErrf(format string, args ...interface{}) error {
	return usageError{err: fmt.Errorf(format, args...)}
}

// isUsageError reports whether err is a usage error.
func isUsageError(err error) bool {
	var u usageError
	return errors.As(err, &u)
}

// newFlagSet returns the uniform flag set of a subcommand: errors are
// returned (not exited on), so main applies one exit-code policy.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parseFlags parses args, classifying failures as usage errors and
// passing -h/-help through unchanged.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err: err}
	}
	if fs.NArg() > 0 {
		return usageErrf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `symtago — CAN network integration analysis (paper reproduction)

commands:
  figures      regenerate the paper's figures (-fig 1..6|all, -quick)
  load         average bus-load analysis (Section 3.1)
  analyze      worst-case response-time analysis of a K-Matrix
  sensitivity  jitter sweep with robustness classification (Figure 4)
  loss         message-loss curve over the jitter sweep (Figure 5)
  optimize     genetic CAN-ID optimization (Section 4.3)
  simulate     discrete-event bus simulation cross-check
  validate     Monte-Carlo batch simulation vs. analytic bounds
  netsim       network-of-buses simulation vs. compositional bounds
  contract     emit/check supply-chain data sheets and specs (Figure 6)
  whatif       incremental re-verification of a change script (supplier revision)
  tolerance    per-message maximum send jitter (supplier requirements)
  extend       how many more messages fit (Section 2's extensibility)
  campaign     population-scale scenario corpus study (analysis + netsim + what-if)
  serve        long-running HTTP/JSON analysis service with persistent sessions
  worker       shard worker executing campaign ranges for a remote coordinator

exit codes: 0 success, 1 runtime failure, 2 usage error`)
}

func cmdFigures(args []string) error {
	fs := newFlagSet("figures")
	fig := fs.String("fig", "all", "figure number 1..6 or 'all'")
	quick := fs.Bool("quick", false, "reduced GA budget for Figure 5")
	csv := fs.Bool("csv", false, "emit the data series as CSV instead of charts (figures 4 and 5)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	run := func(n string) error {
		switch n {
		case "1":
			fmt.Println(experiments.RunFigure1().Render())
		case "2":
			f, err := experiments.RunFigure2()
			if err != nil {
				return err
			}
			fmt.Println(f.Render())
		case "3":
			fmt.Println(experiments.RunFigure3().Render())
		case "4":
			f, err := experiments.RunFigure4()
			if err != nil {
				return err
			}
			if *csv {
				return f.WriteCSV(os.Stdout)
			}
			fmt.Println(f.Render())
		case "5":
			f, err := experiments.RunFigure5(experiments.Figure5Params{Quick: *quick})
			if err != nil {
				return err
			}
			if *csv {
				return f.WriteCSV(os.Stdout)
			}
			fmt.Println(f.Render())
		case "6":
			f, err := experiments.RunFigure6()
			if err != nil {
				return err
			}
			fmt.Println(f.Render())
		default:
			return usageErrf("unknown figure %q", n)
		}
		return nil
	}
	if *fig == "all" {
		for _, n := range []string{"1", "2", "3", "4", "5", "6"} {
			if err := run(n); err != nil {
				return err
			}
		}
		return nil
	}
	return run(*fig)
}
