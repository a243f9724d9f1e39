package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"lzssfpga"
	"lzssfpga/internal/cache"
	"lzssfpga/internal/checksum"
	"lzssfpga/internal/cluster"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/token"
)

// segmentBytes is the server's default parallel cut.
const segmentBytes = 256 << 10

// span is one timed call, under the ID of the op it belongs to.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run writes them out. A nil
// log records nothing, so untraced ops pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span from start until now.
func (s *spanLog) add(op int64, name, parent string, start time.Time) {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	s.spans = append(s.spans, span{op, name, parent, start.Sub(s.epoch).Nanoseconds(), end.Sub(start).Nanoseconds()})
	s.mu.Unlock()
}

// durations returns the durations of the spans called name.
func (s *spanLog) durations(name string) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ds []time.Duration
	for _, sp := range s.spans {
		if sp.Name == name {
			ds = append(ds, time.Duration(sp.Dur))
		}
	}
	return ds
}

func (s *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer accumulates one layer's replayed calls. ns is self time: the
// call's duration minus the ledger calls made inside it.
type layer struct {
	parent         string
	blocking       bool // on the op's critical path: counts toward attribution
	calls          int64
	bytes          int64
	ns             int64
	allocs         int64
	matched, input int64 // matcher layers: Σ matched bytes, Σ input bytes
}

// ledger replays recorded ops through the layers' public functions,
// one span per call under the op's ID.
type ledger struct {
	sp     *spanLog
	layers map[string]*layer
	order  []string
	// inside is the duration of ledger calls made within the current
	// call, so a parent's self time excludes its children.
	inside    int64
	insideMem int64
	mem       []metrics.Sample

	serialNs, widthNs int64 // engine: Σ segment work, Σ wall × usable width
	frontOverhead     []time.Duration
}

func newLedger(sp *spanLog) *ledger {
	return &ledger{
		sp:     sp,
		layers: map[string]*layer{},
		mem:    []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (l *ledger) allocated() int64 {
	metrics.Read(l.mem)
	return int64(l.mem[0].Value.Uint64())
}

// get returns layer name, creating it on first use.
func (l *ledger) get(name, parent string, blocking bool) *layer {
	ly := l.layers[name]
	if ly == nil {
		ly = &layer{parent: parent, blocking: blocking}
		l.layers[name] = ly
		l.order = append(l.order, name)
	}
	return ly
}

// measure times fn as one call of layer name covering n bytes.
func (l *ledger) measure(id int64, name, parent string, blocking bool, n int, fn func() error) (time.Duration, error) {
	ly := l.get(name, parent, blocking)
	savedNs, savedMem := l.inside, l.insideMem
	l.inside, l.insideMem = 0, 0
	a0 := l.allocated()
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	alloc := l.allocated() - a0
	l.sp.add(id, name, parent, t0)
	ly.calls++
	ly.bytes += int64(n)
	ly.ns += dt.Nanoseconds() - l.inside
	ly.allocs += alloc - l.insideMem
	l.inside, l.insideMem = savedNs+dt.Nanoseconds(), savedMem+alloc
	return dt, err
}

// top times a call on the op's critical path.
func (l *ledger) top(id int64, name string, n int, fn func() error) error {
	_, err := l.measure(id, name, "op", true, n, fn)
	return err
}

// engine replays a server compress: ParallelCompressTo (or the preset
// dictionary form) on the shared engine, then the same 256 KiB cut
// compressed serially layer by layer — matcher, entropy coder,
// Adler-32 — so the engine's wall time can be split and its parallel
// efficiency read. Under parent "op" the engine call is on the
// critical path; under a cluster hop it is nested inside that hop.
func (l *ledger) engine(id int64, parent string, payload []byte, p lzss.Params, preset []byte) ([]byte, error) {
	var z []byte
	wall, err := l.measure(id, "engine", parent, parent == "op", len(payload), func() error {
		if preset != nil {
			var err error
			z, err = deflate.ParallelCompressPreset(payload, preset, p, 0, 0)
			return err
		}
		var buf bytes.Buffer
		_, err := deflate.ParallelCompressTo(context.Background(), &buf, payload, p, 0, 0)
		z = buf.Bytes()
		return err
	})
	if err != nil {
		return nil, err
	}
	name := "lzss.match"
	if p.SA {
		name = "sa.match"
	}
	matcher := l.get(name, "engine", false)
	var serial time.Duration
	segs := 0
	for off := 0; off < len(payload); off += segmentBytes {
		seg := payload[off:min(off+segmentBytes, len(payload))]
		segs++
		var cmds []token.Command
		dt, err := l.measure(id, name, "engine", false, len(seg), func() error {
			c, st, err := lzss.Compress(seg, p)
			if err != nil {
				return err
			}
			cmds = c
			matcher.matched += st.MatchedBytes
			matcher.input += st.InputBytes
			return nil
		})
		if err != nil {
			return nil, err
		}
		serial += dt
		dt, err = l.measure(id, "deflate.encode", "engine", false, len(seg), func() error {
			_, err := deflate.BestDeflate(cmds, seg)
			return err
		})
		if err != nil {
			return nil, err
		}
		serial += dt
	}
	dt, _ := l.measure(id, "checksum.adler", "engine", false, len(payload), func() error {
		checksum.Adler32Sum(payload)
		return nil
	})
	serial += dt
	l.serialNs += serial.Nanoseconds()
	l.widthNs += wall.Nanoseconds() * int64(min(segs, runtime.GOMAXPROCS(0)))
	return z, nil
}

// inflate replays a server decompress through the hardened inflater
// and checks its output.
func (l *ledger) inflate(id int64, parent string, z, preset []byte, lim deflate.DecodeLimits, want []byte) error {
	_, err := l.measure(id, "deflate.inflate", parent, parent == "op", len(want), func() error {
		var (
			got []byte
			err error
		)
		if preset != nil {
			got, err = deflate.ZlibDecompressDictLimited(z, preset, lim)
		} else {
			got, err = deflate.ZlibDecompressLimited(z, lim)
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("inflate: %w", errMismatch)
		}
		return nil
	})
	return err
}

// frames replays one client hop of an op: the compress request and
// response, then the decompress request and response, each written
// with WriteMessage and read back with ReadMessage.
func (l *ledger) frames(id int64, dictID string, compressIn, compressOut []byte) error {
	msgs := []server.Message{
		{Op: server.OpCompress, Payload: compressIn, DictID: dictID},
		{Op: server.OpResponse, Payload: compressOut, DictID: dictID, TraceID: obs.NewTraceID()},
		{Op: server.OpDecompress, Payload: compressOut, DictID: dictID},
		{Op: server.OpResponse, Payload: compressIn, DictID: dictID, TraceID: obs.NewTraceID()},
	}
	for i := range msgs {
		m := &msgs[i]
		err := l.top(id, "server.frame", len(m.Payload), func() error {
			var buf bytes.Buffer
			if err := server.WriteMessage(&buf, m); err != nil {
				return err
			}
			got, err := server.ReadMessage(&buf, len(m.Payload))
			if err != nil {
				return err
			}
			if !bytes.Equal(got.Payload, m.Payload) {
				return fmt.Errorf("frame: %w", errMismatch)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// frontFingerprint mirrors the cluster front's constant cache-key
// parameter component, so the replayed keys hash what the front hashes.
const frontFingerprint = 0x66726f6e742d7631

// cachedCompress replays the front's compress path: the content key,
// then GetOrCompute on rc, whose misses route through
// Cluster.DoTracedDict exactly as the front's do.
func (l *ledger) cachedCompress(id int64, rc *cache.Cache, c *cluster.Cluster, in opInput, want []byte) error {
	var key cache.Key
	err := l.top(id, "cache.key", len(in.payload), func() error {
		key = cache.KeyFor(in.payload, frontFingerprint, in.dict)
		return nil
	})
	if err != nil {
		return err
	}
	return l.top(id, "cache.get", len(in.payload), func() error {
		z, _, err := rc.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			var z []byte
			err := l.top(id, "cluster.compress", len(in.payload), func() error {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				defer cancel()
				var err error
				z, _, err = c.DoTracedDict(ctx, server.OpCompress, in.payload, in.dict)
				return err
			})
			return z, err
		}, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(z, want) {
			return fmt.Errorf("cluster compress: %w", errMismatch)
		}
		return nil
	})
}

// clusterDecompress replays the front's decompress hop with
// Cluster.DoTracedDict, then makes the same request through the front
// itself; the difference is the front's own overhead.
func (l *ledger) clusterDecompress(id int64, c *cluster.Cluster, mux *client.Mux, z []byte, dictID string, want []byte) error {
	call := func(do func(ctx context.Context) ([]byte, error)) error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		got, err := do(ctx)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cluster decompress: %w", errMismatch)
		}
		return nil
	}
	direct, err := l.measure(id, "cluster.decompress", "op", true, len(want), func() error {
		return call(func(ctx context.Context) ([]byte, error) {
			out, _, err := c.DoTracedDict(ctx, server.OpDecompress, z, dictID)
			return out, err
		})
	})
	if err != nil {
		return err
	}
	viaFront, err := l.measure(id, "cluster.front_probe", "probe", false, len(want), func() error {
		return call(func(ctx context.Context) ([]byte, error) {
			out, _, err := mux.DoDict(ctx, server.OpDecompress, z, dictID)
			return out, err
		})
	})
	if err != nil {
		return err
	}
	l.frontOverhead = append(l.frontOverhead, viaFront-direct)
	return nil
}

// tracedRun is the per-layer run, in three equal parts of d: an
// untraced window (the reference for trace.overhead_frac); phase 1, the
// same ops with the program's observability on and a span around every
// client call; phase 2, the ledger, which replays phase 1's ops through
// the layers' public functions until its share of d is spent. It
// returns how many ops it checked and how many failed.
func tracedRun(m map[string]metric, b *bench, name string, seed int64, d time.Duration, out string) (checked, failed int64, err error) {
	part := d / 3
	w0 := runWindow(b, part, nil, false)

	reg := obs.NewRegistry()
	lzssfpga.EnableObservability(reg)
	sp := newSpanLog()
	var c0, c1 cache.Stats
	if b.cacheStats != nil {
		c0 = b.cacheStats()
	}
	w1 := runWindow(b, part, sp, true)
	if b.cacheStats != nil {
		c1 = b.cacheStats()
	}
	lzssfpga.EnableObservability(nil)
	checked, failed = w0.ops+w1.ops, w0.failed+w1.failed
	if len(w1.records) == 0 {
		return checked, failed, fmt.Errorf("phase 1 completed no op: %v", w1.firstErr)
	}

	l := newLedger(sp)
	recs := w1.records
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	var opNs int64
	deadline := time.Now().Add(part)
	replayed := 0
	for _, r := range recs {
		if replayed > 0 && time.Now().After(deadline) {
			break
		}
		replayed++
		checked++
		if err := b.replay(l, r.id, r.in); err != nil {
			failed++
			fmt.Printf("replay of op %d: %v\n", r.id, err)
			continue
		}
		opNs += r.lat.Nanoseconds()
	}

	perByte := func(name string) float64 {
		if ly := l.layers[name]; ly != nil && ly.bytes > 0 {
			return float64(ly.ns) / float64(ly.bytes)
		}
		return 0
	}
	perOp := func(name string) float64 {
		if ly := l.layers[name]; ly != nil && ly.calls > 0 {
			return float64(ly.allocs) / 1024 / float64(replayed)
		}
		return 0
	}
	matched := func(name string) float64 {
		if ly := l.layers[name]; ly != nil && ly.input > 0 {
			return float64(ly.matched) / float64(ly.input)
		}
		return 0
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	frame := l.layers["server.frame"]
	frameAllocPerMB := 0.0
	if frame != nil && frame.bytes > 0 {
		frameAllocPerMB = float64(frame.allocs) / 1024 / (float64(frame.bytes) / (1 << 20))
	}
	ops1 := float64(w1.ops)
	thr0 := float64(w0.bytes) / w0.wall.Seconds()
	thr1 := float64(w1.bytes) / w1.wall.Seconds()

	m["lzss.match_ns_per_byte"] = metric{perByte("lzss.match"), "ns/B"}
	m["lzss.matched_byte_frac"] = metric{matched("lzss.match"), "frac"}
	m["sa.match_ns_per_byte"] = metric{perByte("sa.match"), "ns/B"}
	m["sa.alloc_kb_per_op"] = metric{perOp("sa.match"), "KiB/op"}
	m["sa.matched_byte_frac"] = metric{matched("sa.match"), "frac"}
	m["deflate.encode_ns_per_byte"] = metric{perByte("deflate.encode"), "ns/B"}
	m["deflate.inflate_ns_per_byte"] = metric{perByte("deflate.inflate"), "ns/B"}
	m["deflate.inflate_alloc_kb_per_op"] = metric{perOp("deflate.inflate"), "KiB/op"}
	m["checksum.adler_ns_per_byte"] = metric{perByte("checksum.adler"), "ns/B"}
	m["engine.parallel_efficiency"] = metric{frac(float64(l.serialNs), float64(l.widthNs)), "frac"}
	m["engine.queue_wait_us_p50"] = metric{reg.Histogram(obs.DeflateQueueWaitUs, nil).Quantile(0.5), "us"}
	m["engine.steals_per_op"] = metric{float64(reg.Counter(obs.EngineSteals).Value()) / ops1, "count/op"}
	m["server.frame_ns_per_byte"] = metric{perByte("server.frame"), "ns/B"}
	m["server.frame_alloc_kb_per_mb"] = metric{frameAllocPerMB, "KiB/MiB"}
	m["server.slot_wait_us_p50"] = metric{reg.Histogram(obs.ServerStageSlotWaitUs, nil).Quantile(0.5), "us"}
	m["server.busy_rejects"] = metric{float64(reg.Counter(obs.ServerBusyRejects).Value()), "count"}
	m["client.compress_ms_p50"] = metric{ms(quantile(sp.durations("client.compress"), 0.5)), "ms"}
	m["client.decompress_ms_p50"] = metric{ms(quantile(sp.durations("client.decompress"), 0.5)), "ms"}
	m["cache.hit_frac"] = metric{frac(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses)), "frac"}
	m["cache.key_ns_per_byte"] = metric{perByte("cache.key"), "ns/B"}
	m["cache.evictions_per_op"] = metric{float64(c1.Evictions-c0.Evictions) / ops1, "count/op"}
	m["cluster.front_overhead_us_p50"] = metric{float64(quantile(l.frontOverhead, 0.5)) / 1e3, "us"}
	m["cluster.retries"] = metric{float64(reg.Counter(obs.ClusterRetries).Value()), "count"}
	m["runtime.gc_cpu_frac"] = metric{w0.gcCPUFrac, "frac"}
	m["ledger.attributed_frac"] = metric{frac(float64(l.attributed()), float64(opNs)), "frac"}
	m["trace.overhead_frac"] = metric{1 - frac(thr1, thr0), "frac"}

	l.printAttribution(name, replayed, opNs)
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := sp.write(path); err != nil {
		return checked, failed, err
	}
	fmt.Printf("spans: %d written to %s\n", len(sp.spans), path)
	return checked, failed, nil
}

// printAttribution prints the ledger as the software counterpart of
// the paper's Table III: each layer's cost per byte and its share of
// the replayed ops' end-to-end latency. Nested rows re-run work that
// happens inside a blocking row (serially, in-process), so only the
// blocking rows add up to the attributed share.
func (l *ledger) printAttribution(name string, ops int, opNs int64) {
	fmt.Printf("attribution: %s, %d ops replayed, op latency %.3f ms/op (phase 1, under load)\n",
		name, ops, float64(opNs)/1e6/float64(ops))
	fmt.Printf("  %-22s %-18s %8s %10s %10s %12s %8s\n", "layer", "within", "calls", "MiB", "ns/B", "alloc KiB/op", "share")
	for _, n := range l.order {
		ly := l.layers[n]
		within := ly.parent
		if ly.blocking {
			within = "op (blocking)"
		}
		nsB := 0.0
		if ly.bytes > 0 {
			nsB = float64(ly.ns) / float64(ly.bytes)
		}
		fmt.Printf("  %-22s %-18s %8d %10.2f %10.3f %12.1f %8.3f\n", n, within, ly.calls,
			float64(ly.bytes)/(1<<20), nsB, float64(ly.allocs)/1024/float64(ops), float64(ly.ns)/float64(opNs))
	}
	fmt.Printf("  %-22s %-18s %8s %10s %10s %12s %8.3f\n", "attributed", "", "", "", "", "", float64(l.attributed())/float64(opNs))
}

// attributed sums the self time of the layers on the ops' critical path.
func (l *ledger) attributed() int64 {
	var ns int64
	for _, ly := range l.layers {
		if ly.blocking {
			ns += ly.ns
		}
	}
	return ns
}
