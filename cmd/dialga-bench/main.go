// Command dialga-bench regenerates the paper's evaluation figures on
// the simulated testbed.
//
//	dialga-bench -fig fig10          # one figure, text table
//	dialga-bench -all                # every figure
//	dialga-bench -fig fig13 -csv     # CSV for plotting
//	dialga-bench -all -quick         # fast smoke run (shapes untrusted)
//	dialga-bench -straggler          # hedged vs plain decode under one slow shard
//	dialga-bench -straggler -json    # same, machine-readable
//	dialga-bench -adaptive           # adaptive vs static decode, paced fleet +
//	                                 # bursty straggler, controller history
//	dialga-bench -adaptive -json     # same, machine-readable (BENCH_adaptive.json)
//	dialga-bench -encode             # fused vs two-pass encode sweep
//	dialga-bench -encode -fused=off  # legacy two-pass path only (escape hatch)
//	dialga-bench -encode -json -gate ci/bench_fused_baseline.json
//	                                 # machine-readable + regression gate
//	dialga-bench -repair             # quorum-degraded puts with a node down,
//	                                 # then intent adoption + repair convergence
//	dialga-bench -repair -json       # same, machine-readable (BENCH_repair.json)
//	dialga-bench -rebalance          # map swap (node added, rack removed), then
//	                                 # bounded migration convergence + range reads
//	dialga-bench -rebalance -json    # same, machine-readable (BENCH_rebalance.json)
//	dialga-bench -serve :8080        # loop the straggler workload and expose
//	                                 # /metrics, /debug/trace, /debug/pprof
//
// Figure ids follow the paper: fig03..fig07 are the §3 observations,
// fig10..fig19 the §5 evaluation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dialga/internal/harness"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure id to run (fig03..fig19)")
		all       = flag.Bool("all", false, "run every figure")
		csv       = flag.Bool("csv", false, "emit CSV instead of a text table")
		quick     = flag.Bool("quick", false, "small working sets and sweeps (fast, shapes untrusted)")
		repeats   = flag.Int("repeats", 1, "average multi-threaded points over N layout seeds")
		verbose   = flag.Bool("v", false, "log each run")
		list      = flag.Bool("list", false, "list figure ids")
		straggler = flag.Bool("straggler", false, "benchmark hedged vs plain decode with one slow shard")
		adaptiveB = flag.Bool("adaptive", false, "benchmark adaptive vs static decode under a paced fleet with a bursty straggler")
		encodeB   = flag.Bool("encode", false, "benchmark fused vs two-pass encode across k and checksum settings")
		fusedMode = flag.String("fused", "both", "with -encode: sweep the fused path (on), the legacy two-pass path (off), or both")
		gate      = flag.String("gate", "", "with -encode: baseline BENCH_fused.json; fail if the RS(10,4) fused speedup regressed >10%")
		repairB   = flag.Bool("repair", false, "benchmark quorum-degraded puts and repair convergence after the missing node returns")
		rebalB    = flag.Bool("rebalance", false, "benchmark cluster-map-swap rebalancing: migration convergence and range-read fan-out")
		asJSON    = flag.Bool("json", false, "with -straggler/-repair/-rebalance/-encode: emit JSON instead of text")
		serve     = flag.String("serve", "", "loop the straggler workload and serve /metrics, /debug/trace and pprof on this address (e.g. :8080)")
	)
	flag.Parse()

	if *serve != "" {
		if err := runServe(*serve, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *encodeB {
		if err := runEncodeBench(*quick, *asJSON, *fusedMode, *gate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *straggler {
		if err := runStraggler(*quick, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *adaptiveB {
		if err := runAdaptive(*quick, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *repairB {
		if err := runRepairBench(*quick, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *rebalB {
		if err := runRebalanceBench(*quick, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println(strings.Join(harness.FigureIDs, "\n"))
		return
	}
	r := &harness.Runner{Quick: *quick, Repeats: *repeats}
	if *verbose {
		r.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	emit := func(f *harness.Figure) {
		if *csv {
			fmt.Print(f.CSV())
			return
		}
		fmt.Println(f.Table())
		if lo, hi, ok := f.ImprovementRange("DIALGA"); ok {
			fmt.Printf("  DIALGA vs best other: %+.1f%% .. %+.1f%%\n\n", lo, hi)
		}
	}

	switch {
	case *all:
		for _, id := range harness.FigureIDs {
			f, err := r.ByID(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
				os.Exit(1)
			}
			emit(f)
		}
	case *fig != "":
		f, err := r.ByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emit(f)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
