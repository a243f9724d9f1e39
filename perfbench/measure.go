package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lzssfpga/internal/cache"
)

// opInput is one op's generated input.
type opInput struct {
	payload []byte
	doc     int    // hot-cluster: index of the document (its reference stream)
	dict    string // hot-cluster: negotiated preset dictionary ("" = none)
}

// bench is one built workload: its servers and clients, the fixed
// verification sample's outcome, and how to draw, run and replay ops.
type bench struct {
	warmOps int // untimed ops per client after set-up

	ratio       float64 // Σ payload / Σ served over the verification sample
	checked     int64   // verification-sample checks made during set-up
	checkFailed int64

	// next draws client c's next input from its own seeded stream.
	next func(c int) opInput
	// do runs one op as client c and checks its output; with sp
	// non-nil each client call is recorded as a span of op id.
	do func(c int, in opInput, sp *spanLog, id int64) error
	// replay pushes one recorded op through the layers' public
	// functions for the ledger.
	replay func(l *ledger, id int64, in opInput) error
	// cacheStats reads the front cache's counters (nil: no cache).
	cacheStats func() cache.Stats
	close      func()

	// corrupt makes every client flip a bit of each response before
	// checking it; only the smoke test sets it, to prove the checks
	// catch a corrupted response.
	corrupt atomic.Bool
}

// tamper returns resp, or a corrupted copy of it while b.corrupt is set.
func (b *bench) tamper(resp []byte) []byte {
	if !b.corrupt.Load() || len(resp) == 0 {
		return resp
	}
	bad := append([]byte(nil), resp...)
	bad[len(bad)/2] ^= 0x10
	return bad
}

// warm runs b.warmOps untimed ops per client, so pools, connections
// and the front cache are in steady state before timing. It returns
// how many ops it ran and how many failed.
func (b *bench) warm() (ops, failed int64) {
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < b.warmOps; i++ {
				if err := b.do(c, b.next(c), nil, 0); err != nil {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int64(clients * b.warmOps), bad.Load()
}

// opRecord is one timed op, kept for the traced run's replay.
type opRecord struct {
	id  int64
	in  opInput
	lat time.Duration
}

// window is one closed-loop measurement: every client sends its next
// op only after its previous one was verified.
type window struct {
	ops, failed int64
	bytes       int64 // payload bytes of the ops that succeeded
	lat         []time.Duration
	wall        time.Duration
	cpu         time.Duration // process user+sys
	allocBytes  uint64
	heapPeak    uint64  // 95th percentile of the live heap over the window
	gcCPUFrac   float64 // GC share of the Go runtime's CPU time
	firstErr    error
	records     []opRecord
}

var opIDs atomic.Int64

// runWindow measures b for d. Ops started before d elapsed run to
// completion; the window ends when the last one is verified.
func runWindow(b *bench, d time.Duration, sp *spanLog, keep bool) window {
	var (
		mu sync.Mutex
		w  window
		wg sync.WaitGroup
	)
	before := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	stopHeap := sampleHeap()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				lat   []time.Duration
				recs  []opRecord
				bytes int64
				fails int64
				ferr  error
			)
			for time.Since(start) < d {
				in := b.next(c)
				id := opIDs.Add(1)
				t0 := time.Now()
				err := b.do(c, in, sp, id)
				dt := time.Since(t0)
				if err != nil {
					fails++
					if ferr == nil {
						ferr = err
					}
					continue
				}
				lat = append(lat, dt)
				bytes += int64(len(in.payload))
				if keep {
					recs = append(recs, opRecord{id, in, dt})
				}
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.records = append(w.records, recs...)
			w.bytes += bytes
			w.failed += fails
			w.ops += int64(len(lat)) + fails
			if w.firstErr == nil {
				w.firstErr = ferr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	after := readRuntime()
	w.heapPeak = stopHeap()
	w.allocBytes = after.allocs - before.allocs
	if tot := after.cpuTotal - before.cpuTotal; tot > 0 {
		w.gcCPUFrac = (after.cpuGC - before.cpuGC) / tot
	}
	return w
}

// runtimeSample is the runtime/metrics subset the benchmark reads.
type runtimeSample struct {
	allocs          uint64
	cpuGC, cpuTotal float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		cpuGC:    s[1].Value.Float64(),
		cpuTotal: s[2].Value.Float64(),
	}
}

// sampleHeap polls the live heap every 5 ms until stopped; stop
// returns the 95th percentile of the samples. The live heap is the
// marked heap of the last finished GC cycle, so it moves with what the
// program retains rather than with when garbage happens to be
// collected. Its plain maximum jumps in about one bulk run in five,
// when a GC happens to mark while both 1 MiB ops hold their buffers;
// the 95th percentile of the time series does not.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	var samples []uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			samples = append(samples, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)*95/100]
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var s cpuStat
	// user nice system idle iowait irq softirq steal (guest time is
	// already counted in user).
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealFrac is the share of all CPU ticks between a and b that the
// hypervisor gave to other guests.
func stealFrac(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printHost records the machine a result was measured on. Runs are
// never filtered by steal; the figure is recorded next to the result.
func printHost(name string, seed int64, steal float64) {
	fmt.Printf("host: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s cpu=%q steal_frac=%.4f\n",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), steal)
}
