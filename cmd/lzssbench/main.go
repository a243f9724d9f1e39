// Command lzssbench regenerates every table and figure of the paper's
// evaluation section and prints them side by side with the paper's
// reported values. The experiment logic lives in internal/experiments.
//
// Usage:
//
//	lzssbench [-exp all|table1|table2|table3|fig2|fig3|fig4|fig5] [-mb N] [-seed S]
//	lzssbench -json BENCH.json [-mb N] [-seed S]   # machine-readable perf report
//
// -json runs with the observability registry enabled and embeds its
// snapshot in the report, so the numbers in the file and the ones a
// Prometheus scrape of -metrics ADDR sees are the same counters read
// the same way. -compare OLD.json gates the freshly measured results
// against an earlier report: any benchmark more than 10% slower in
// MB/s fails the run (the CI regression gate). The report also
// measures hot-block serving — cached_hot_wiki (a content-addressed
// cache hit, SHA-256 key included) against uncached_zlib_wiki on the
// same bytes — and fails unless the hit is at least 10x faster — and
// the inflate layer: inflate_zlib_wiki (the table-driven decoder)
// against stdlib_inflate_zlib_wiki on the same level-1 stream, failing
// unless ours is at least as fast.
//
// -cpuprofile / -memprofile write pprof profiles of whichever mode ran.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"lzssfpga"
	"lzssfpga/internal/etherlink"
	"lzssfpga/internal/experiments"
	"lzssfpga/internal/faultinject"
	"lzssfpga/internal/resilience"
	"lzssfpga/internal/testbench"
	"lzssfpga/internal/workload"
)

var (
	exp        = flag.String("exp", "all", "experiment: all, table1, table2, table3, fig2, fig3, fig4, fig5")
	mb         = flag.Int("mb", 4, "corpus fragment size in MiB for the figures")
	seed       = flag.Int64("seed", 1, "corpus generator seed")
	jsonPath   = flag.String("json", "", "write a machine-readable benchmark report to this path instead of running experiments")
	compareTo  = flag.String("compare", "", "with -json: fail if any result regresses >10% in MB/s or changes ratio vs this earlier report (sweep rows match on name + gomaxprocs, the rest on name)")
	sweepArg   = flag.Bool("sweep", false, "with -json: additionally measure the parallel paths at GOMAXPROCS 1/2/4/8, rebuilding the engine at each width")
	metrics    = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	faultsArg  = flag.String("faults", "", "run the resilient testbench loop under injected faults (e.g. \"drop=0.1,panic=0.1,seed=7\") instead of the experiments")
	timeoutArg = flag.Duration("timeout", 0, "with -faults: overall deadline for the resilient loop")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lzssbench:", err)
		os.Exit(1)
	}
}

func run() error {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lzssbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lzssbench: memprofile:", err)
			}
		}()
	}
	reg := lzssfpga.NewMetricsRegistry()
	lzssfpga.EnableObservability(reg)
	defer lzssfpga.EnableObservability(nil)
	if *metrics != "" {
		srv, bound, err := lzssfpga.ServeMetrics(reg, *metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "lzssbench: metrics on http://%s/metrics\n", bound)
	}
	if *jsonPath != "" {
		rep, err := writeJSONReport(*jsonPath, *mb<<20, *seed, *sweepArg, reg)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		if *compareTo != "" {
			return compareReports(rep, *compareTo)
		}
		return nil
	}
	if *compareTo != "" {
		return fmt.Errorf("-compare requires -json (it gates freshly measured results)")
	}
	if *sweepArg {
		return fmt.Errorf("-sweep extends the -json report: it requires -json")
	}
	if *faultsArg != "" {
		return runFaultDemo()
	}
	if *timeoutArg > 0 {
		return fmt.Errorf("-timeout bounds the resilient loop: it requires -faults")
	}
	p := experiments.Params{Bytes: *mb << 20, Seed: *seed}
	var out string
	var err error
	if *exp == "all" {
		out, err = experiments.All(p)
	} else {
		out, err = experiments.Run(*exp, p)
	}
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// runFaultDemo drives the full resilient testbench loop — reliable
// Ethernet in, DDR2 staging with CRC scrub, timed compression on the
// modeled core, panic-safe parallel compression, reliable transfer back
// and decode verification — under the requested fault spec, and prints
// the recovery ledger.
func runFaultDemo() error {
	spec, err := faultinject.ParseSpec(*faultsArg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeoutArg > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutArg)
		defer cancel()
	}
	data := workload.Wiki(*mb<<20, *seed)
	inj := faultinject.New(spec)
	b := testbench.ML507()
	res, err := b.RunFullResilient(ctx, fmt.Sprintf("Wiki %dMB", *mb), data, etherlink.ML507Link(),
		inj, resilience.DefaultPolicy())
	if err != nil {
		return fmt.Errorf("resilient run: %w (faults so far: %s)", err, inj.Stats().Describe())
	}
	fmt.Printf("resilient testbench loop: %s, %d bytes, byte-exact after recovery\n", res.Corpus, res.Bytes)
	fmt.Printf("  faults injected:   %s\n", res.Faults.Describe())
	fmt.Printf("  transfer:          %d frames, %d rounds, %d retransmits, %d corrupted, %d duplicates\n",
		res.Transfer.Frames, res.Transfer.Rounds, res.Transfer.Retransmits, res.Transfer.Corrupted, res.Transfer.Duplicates)
	fmt.Printf("  staging rewrites:  %d\n", res.StagingRewrites)
	fmt.Printf("  compress recovery: %d segments, %d retries, %d panics recovered, %d degraded\n",
		res.Compress.Segments, res.Compress.Retries, res.Compress.PanicsRecovered, res.Compress.Degraded)
	fmt.Printf("  return retries:    %d\n", res.ReturnRetries)
	fmt.Printf("  modeled: hw %.1f MB/s, sw %.1f MB/s, speedup %.1fx, ratio %.3f\n",
		res.HWMBps, res.SWMBps, res.Speedup, res.Ratio)
	return nil
}
