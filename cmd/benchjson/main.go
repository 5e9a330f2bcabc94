// Command benchjson is the CI front end of internal/benchparse: it
// turns `go test -bench` output into the BENCH_*.json artifact and
// gates a fresh run against the committed baseline.
//
// Usage:
//
//	go test -bench . -benchmem -count 6 ./... | benchjson parse -note "ci run 123" -out BENCH_PR6.json
//	benchjson compare -base BENCH_PR6.json -new bench_new.json \
//	    -keys BenchmarkWhatIf,BenchmarkNetSim,BenchmarkCampaign,BenchmarkServeLoad -threshold 0.10
//
// parse reads a bench transcript on stdin (or -in) and writes the
// per-benchmark metric medians as JSON. compare exits 1 when a gated
// metric of a key benchmark regressed past the threshold: ns/op (and
// B/op, allocs/op, p99_*) rising, or the custom rate metrics
// (scenarios/s, frames/s, requests/s) falling. The what-if speedup
// ratio is reported, not gated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchparse"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = cmdParse(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `benchjson — go test -bench output to BENCH_*.json, plus the regression gate

commands:
  parse    [-in file] [-out file] [-note text]   transcript -> JSON medians
  compare  -base file -new file [-keys a,b,...] [-threshold 0.10]

compare exits 1 when a key benchmark regressed past the threshold.`)
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("in", "", "bench transcript (default stdin)")
	out := fs.String("out", "", "output JSON (default stdout)")
	note := fs.String("note", "", "provenance note stored in the file")
	fs.Parse(args)

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	samples, err := benchparse.Parse(src)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	file := benchparse.Aggregate(samples, *note)

	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := file.WriteJSON(dst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks from %d samples\n",
		len(file.Benchmarks), len(samples))
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("base", "", "baseline BENCH_*.json (required)")
	newPath := fs.String("new", "", "fresh BENCH_*.json (required)")
	keys := fs.String("keys", "BenchmarkWhatIf,BenchmarkNetSim,BenchmarkCampaign,BenchmarkServeLoad",
		"comma-separated gated benchmark names (sub-benchmarks included)")
	threshold := fs.Float64("threshold", 0.10, "allowed fractional regression")
	fs.Parse(args)
	if *basePath == "" || *newPath == "" {
		return fmt.Errorf("compare: -base and -new are required")
	}
	read := func(path string) (*benchparse.File, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return benchparse.ReadFile(f)
	}
	base, err := read(*basePath)
	if err != nil {
		return err
	}
	cur, err := read(*newPath)
	if err != nil {
		return err
	}
	regs := benchparse.Compare(base, cur, strings.Split(*keys, ","), *threshold)
	if len(regs) == 0 {
		fmt.Printf("benchjson: no regression past %.0f%% on %s\n", 100**threshold, *keys)
		return nil
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	return fmt.Errorf("%d gated metric(s) regressed past %.0f%%", len(regs), 100**threshold)
}
