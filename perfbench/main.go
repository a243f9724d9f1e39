// Command perfbench is the repository's serving benchmark. It starts
// lzssd servers in-process, drives them over loopback with closed-loop
// clients, checks every response, and prints each metric by name with
// its unit. Its last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload bulk-tcp --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run that reports the per-layer metrics and the attribution table
// (see NOTES.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupRounds is how many times a run builds its workload from
// scratch; setup_s is the median, and the last instance is measured.
const setupRounds = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: bulk-tcp, hot-cluster or archive-l11")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()

	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload bulk-tcp|hot-cluster|archive-l11 --seed N --seconds S --trace 0|1")
		return 2
	}
	cpuStart := readCPUStat()

	var (
		b       *bench
		setups  []float64
		checked int64
		bad     int64
	)
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		nb, err := build(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		checked += nb.checked
		bad += nb.checkFailed
		if i < setupRounds-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()
	n, f := b.warm()
	checked += n
	bad += f

	res := result{Metrics: map[string]metric{}}
	if *trace == 0 {
		w := runWindow(b, time.Duration(*seconds)*time.Second, nil, false)
		checked += w.ops
		bad += w.failed
		endToEnd(res.Metrics, b, w, median(setups))
		fmt.Printf("%s: %d ops over %.2f s (%d latency samples), %d failed\n",
			*name, w.ops, w.wall.Seconds(), len(w.lat), w.failed)
		if w.firstErr != nil {
			fmt.Printf("first failure: %v\n", w.firstErr)
		}
	} else {
		n, f, err := tracedRun(res.Metrics, b, *name, *seed, time.Duration(*seconds)*time.Second, *out)
		checked += n
		bad += f
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %v\n", *name, err)
			return 1
		}
	}
	steal := stealFrac(cpuStart, readCPUStat())
	if *trace == 1 {
		res.Metrics["host.steal_frac"] = metric{steal, "frac"}
	}
	printHost(*name, *seed, steal)
	printMetrics(res.Metrics)

	res.Attempted = checked
	res.Failed = bad
	res.Correct = bad == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd fills the eight user-facing metrics of an untraced window.
func endToEnd(m map[string]metric, b *bench, w window, setup float64) {
	mib := float64(w.bytes) / (1 << 20)
	m["throughput_mb_s"] = metric{mib / w.wall.Seconds(), "MiB/s"}
	m["latency_p50_ms"] = metric{ms(quantile(w.lat, 0.50)), "ms"}
	m["latency_p90_ms"] = metric{ms(quantile(w.lat, 0.90)), "ms"}
	m["compression_ratio"] = metric{b.ratio, "x"}
	m["cpu_ms_per_mb"] = metric{ms(w.cpu) / mib, "ms/MiB"}
	m["alloc_kb_per_op"] = metric{float64(w.allocBytes) / 1024 / float64(w.ops), "KiB/op"}
	m["heap_peak_mb"] = metric{float64(w.heapPeak) / (1 << 20), "MiB"}
	m["setup_s"] = metric{setup, "s"}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of ds (ds is sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errMismatch marks an op whose output differs from what it must be.
var errMismatch = errors.New("output mismatch")
