package deflate

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/engine"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/token"
)

// segWorker is the reusable per-goroutine state of the parallel
// compressor: matcher hash tables, the command buffer and the encoded
// output buffer all survive from segment to segment (and, through the
// pool, from call to call), so the steady-state hot path allocates only
// the per-segment result slice.
type segWorker struct {
	p    lzss.Params
	m    *lzss.Matcher
	cmds []token.Command
	out  sliceBuffer
	bw   *bitio.Writer
	plan dynamicPlan
	// Per-run observability context, set by the worker loop before
	// each segment and cleared before pooling: the run's tracer (nil
	// when tracing is off), the worker's trace row, and the segment
	// index being compressed.
	tr  *obs.Tracer
	tid int
	seg int
	// shard is the engine shard whose arena stack serves this worker's
	// output buffers (-1 = global tier), set by the job body from the
	// executing worker id.
	shard int
}

// sliceBuffer is the minimal io.Writer the bit writer needs: an
// appendable byte slice that can be reset without freeing its backing
// array (bytes.Buffer would do, but shifts bytes on Read and keeps
// internal state the pipeline never uses).
type sliceBuffer struct{ b []byte }

func (s *sliceBuffer) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

var segWorkerPool = sync.Pool{New: func() any { return new(segWorker) }}

// getSegWorker fetches a pooled worker, rebuilding the matcher when the
// pooled one was configured differently (table sizes or policy).
func getSegWorker(p lzss.Params) (*segWorker, error) {
	k := deflateObs.Load()
	w := segWorkerPool.Get().(*segWorker)
	if k != nil {
		k.poolGets.Inc()
	}
	if w.m == nil || !w.p.SameConfig(p) {
		if k != nil {
			k.poolRebuilds.Inc()
		}
		m, err := lzss.NewMatcher(nil, p, nil)
		if err != nil {
			segWorkerPool.Put(w)
			return nil, err
		}
		w.m = m
		w.p = p
	}
	if w.bw == nil {
		w.bw = bitio.NewWriter(&w.out)
	}
	w.shard = -1
	return w, nil
}

// putSegWorker drops references into the caller's data before pooling,
// so a cached worker never pins a user buffer.
func putSegWorker(w *segWorker) {
	w.m.Reset(nil)
	w.cmds = w.cmds[:0]
	w.out.b = w.out.b[:0]
	w.tr = nil
	segWorkerPool.Put(w)
}

// ParallelCompress compresses data into a standard zlib stream on the
// shared persistent engine, pigz-style: the input is cut into segments,
// each segment is LZSS-matched and Huffman-coded as its own Deflate
// block(s) with a fresh dictionary, and the blocks stream out in order
// as they complete. The output is deterministic — identical for any
// worker count — and decodable by any inflater; the price of the
// parallelism is that matches cannot cross segment boundaries.
//
// segment is the cut size (0 selects 256 KiB, a good ratio/parallelism
// balance; SegmentAdaptive lets the engine's sizer choose, trading
// determinism for utilization). workers caps this call's in-flight
// segments; 0 means the engine's full width (one worker per shard,
// sized to GOMAXPROCS at engine start).
func ParallelCompress(data []byte, p lzss.Params, segment, workers int) ([]byte, error) {
	return parallelCompress(data, p, segment, workers, false, nil)
}

// ParallelCompressDict is ParallelCompress with dictionary carry-over
// (pigz's default mode): each segment's matcher is preset with the
// trailing window of its predecessor, so matches reach back across the
// cut. The ratio loss of segmenting all but disappears; the output is
// still one standard zlib stream any inflater decodes, because an
// inflater's history window spans block boundaries. Within a segment
// matching is greedy (the dictionary path is policy-shared with
// CompressWithDict).
func ParallelCompressDict(data []byte, p lzss.Params, segment, workers int) ([]byte, error) {
	return parallelCompress(data, p, segment, workers, true, nil)
}

// ParallelCompressTraced is ParallelCompress(Dict) with a span tracer
// observing the pipeline stages: one "split" span for segmentation
// planning, per-segment "match" and "encode" spans on the owning
// worker's trace row, and one "assemble" span for stream assembly. tr
// may be nil (no tracing).
func ParallelCompressTraced(data []byte, p lzss.Params, segment, workers int, carry bool, tr *obs.Tracer) ([]byte, error) {
	return parallelCompress(data, p, segment, workers, carry, tr)
}

// parallelCompress runs a request on the shared persistent engine and
// collects the stream into one preallocated buffer (sized from the
// running ratio estimate). The steady-state request path allocates only
// the returned output buffer (jobs, reorder state and segment bodies
// all recycle through pools and the engine arena).
func parallelCompress(data []byte, p lzss.Params, segment, workers int, carry bool, tr *obs.Tracer) ([]byte, error) {
	out := make([]byte, 0, estimateOut(len(data)))
	err := parallelCompressCore(context.Background(), data, 0, false, 0, p, segment, workers, carry, tr,
		func(b []byte) error {
			out = append(out, b...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelCompressPreset compresses data against a preset dictionary
// into an RFC 1950 FDICT stream (header flag set, DICTID = the
// dictionary's Adler-32) on the shared persistent engine. The
// dictionary's trailing Window-1 bytes are laid down as history in
// front of the data — exactly the layout lzss.CompressWithDict uses —
// and every segment runs with dictionary carry-over, so segment 0's
// matches reach into the preset window and later segments reach their
// predecessors. Any zlib implementation holding the same dictionary
// (e.g. ZlibDecompressDict) decodes the result.
func ParallelCompressPreset(data, dict []byte, p lzss.Params, segment, workers int) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	capped := dict
	if reach := p.Window - 1; len(capped) > reach {
		capped = capped[len(capped)-reach:]
	}
	// One contiguous buffer: [dictionary tail | data]. The copy is the
	// price of adjacency (CompressTail needs the history physically in
	// front of the segment); it is linear and dwarfed by matching.
	buf := make([]byte, 0, len(capped)+len(data))
	buf = append(buf, capped...)
	buf = append(buf, data...)
	out := make([]byte, 0, estimateOut(len(data))+10)
	err := parallelCompressCore(context.Background(), buf, len(capped), true, AdlerChecksum(dict),
		p, segment, workers, true,
		nil, func(b []byte) error {
			out = append(out, b...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelCompressTo is ParallelCompress with a streaming sink: segment
// bodies are written to w in index order as they complete, so the first
// compressed bytes reach the consumer (a network client, a pipe) while
// later segments are still compressing. ctx cancellation stops feeding
// the engine — segments already queued complete into the reorder buffer
// and are discarded — and the call returns ctx.Err(). The return value
// is the byte count written to w; on any error the stream written so
// far is incomplete and must be discarded by the consumer.
func ParallelCompressTo(ctx context.Context, w io.Writer, data []byte, p lzss.Params, segment, workers int) (int64, error) {
	var n int64
	err := parallelCompressCore(ctx, data, 0, false, 0, p, segment, workers, false, nil,
		func(b []byte) error {
			k, werr := w.Write(b)
			n += int64(k)
			return werr
		})
	return n, err
}

// parallelCompressCore is the shared driver of the buffered and
// streaming parallel paths: it plans the cut, submits pooled segment
// jobs with the worker budget as the in-flight cap, and hands completed
// bodies to write in index order while later segments are still
// compressing. A write error stops emission (remaining bodies are still
// drained and recycled) and becomes the call's error.
//
// data[:base] is preset-dictionary history: it is matched against but
// never emitted, the segment plan covers data[base:] only, and the
// Adler trailer sums data[base:]. With fdict set the container is the
// six-byte FDICT header carrying dictID instead of the plain two-byte
// one. Non-dictionary callers pass (0, false, 0).
func parallelCompressCore(ctx context.Context, data []byte, base int, fdict bool, dictID uint32,
	p lzss.Params, segment, workers int, carry bool, tr *obs.Tracer, write func([]byte) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if workers <= 0 {
		// Fast-path segments are pure CPU: in-flight work beyond the
		// machine's parallelism buys nothing and interleaves extra pooled
		// matchers (hash tables) through the caches. The resilient path
		// keeps the engine's full width instead — its segments block on
		// injected stalls and deadlines, so overlap there is the point.
		workers = runtime.GOMAXPROCS(0)
	}
	k := deflateObs.Load()
	rt := obs.RequestFromContext(ctx)
	splitStart := time.Now()
	plan := planSegments(len(data)-base, segment)
	var hdr []byte
	if fdict {
		h, err := zlibDictHeader(p.Window, dictID)
		if err != nil {
			return err
		}
		hdr = h[:]
	} else {
		h, err := ZlibHeader(p.Window)
		if err != nil {
			return err
		}
		hdr = h[:]
	}
	var written int64
	var firstErr error
	sink := func(b []byte) {
		if firstErr != nil {
			return
		}
		if err := write(b); err != nil {
			firstErr = err
			return
		}
		written += int64(len(b))
	}
	sink(hdr)

	eng := defaultEngine()
	jobs := getJobs(plan.nSeg)
	defer putJobs(jobs)
	emit := func(b *engine.Buf, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if b != nil {
			sink(b.B)
			engine.PutBuf(b)
		}
	}
	if tr != nil {
		tr.Span("split", 0, splitStart, time.Since(splitStart),
			fmt.Sprintf(`{"segments":%d,"workers":%d}`, plan.nSeg, eng.Shards()))
	}
	submitErr := eng.SubmitAndStream(ctx, plan.nSeg, workers,
		func(i int, r *engine.Request) engine.Job {
			j := &(*jobs)[i]
			lo := base + i*plan.segment
			hi := lo + plan.segment
			if hi > len(data) {
				hi = len(data)
			}
			*j = pjob{
				req: r, data: data, p: p, idx: i,
				lo: lo, hi: hi, dictLo: dictLow(lo, carry, p),
				final: i == plan.nSeg-1, tr: tr, rt: rt, adaptive: plan.adaptive,
			}
			if k != nil || rt != nil {
				j.submitAt = time.Now()
			}
			return j
		}, emit)
	if firstErr != nil {
		return firstErr
	}
	if submitErr != nil {
		return submitErr
	}
	// Finalize: Adler-32 trailer onto the streamed body bytes (the
	// preset-history prefix is matched against but never summed).
	assembleStart := time.Now()
	sum := AdlerChecksum(data[base:])
	sink([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	if firstErr != nil {
		return firstErr
	}
	if tr != nil {
		tr.Span("assemble", 0, assembleStart, time.Since(assembleStart), fmt.Sprintf(`{"bytes":%d}`, written))
	}
	if k != nil {
		k.parallelRuns.Inc()
		if written > 0 {
			k.lastRatio.Set(float64(len(data)-base) / float64(written))
		}
	}
	observeRatio(float64(len(data)-base) / float64(written))
	return nil
}

// compressSegment produces byte-aligned Deflate blocks for one segment,
// buf[origin:]; buf[:origin] is preset history the matcher may reach
// into (empty without dictionary carry-over). Alignment matters:
// segments are encoded independently and then concatenated, so each
// must end on a byte boundary. A zero-length stored block provides the
// alignment padding (and carries the BFINAL flag on the last segment) —
// the classic Z_FULL_FLUSH framing. The body is encoded directly into
// an arena buffer sized from hint and returned without copying; the
// caller recycles it (engine.PutBuf) after assembly. All other scratch
// state lives in the worker.
func (w *segWorker) compressSegment(buf []byte, origin int, final bool, hint int) (*engine.Buf, error) {
	matchStart := time.Now()
	if origin > 0 {
		w.cmds = lzss.CompressTail(w.cmds[:0], w.m, buf, origin)
	} else {
		w.cmds = lzss.CompressReuse(w.cmds[:0], w.m, buf)
	}
	if w.tr != nil {
		w.tr.Span("match", w.tid, matchStart, time.Since(matchStart),
			fmt.Sprintf(`{"segment":%d,"bytes":%d,"commands":%d}`, w.seg, len(buf)-origin, len(w.cmds)))
	}
	encodeStart := time.Now()
	// Encode straight into an arena buffer: the filled buffer IS the
	// returned body, so the old copy-to-fresh-slice step is gone. On an
	// error path the buffer goes straight back to the arena.
	ab := engine.GetBufShard(hint, w.shard)
	w.out.b = ab.B
	fail := func(err error) (*engine.Buf, error) {
		w.out.b = nil
		engine.PutBuf(ab)
		return nil, err
	}
	bw := w.bw
	bw.Reset(&w.out)
	if err := writeBlock(bw, &w.plan, w.cmds, false); err != nil {
		return fail(err)
	}
	writeStoredHeader(bw, 0, final) // alignment / final marker
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	ab.B = w.out.b
	w.out.b = nil
	if w.tr != nil {
		w.tr.Span("encode", w.tid, encodeStart, time.Since(encodeStart),
			fmt.Sprintf(`{"segment":%d,"bytes":%d}`, w.seg, len(ab.B)))
	}
	return ab, nil
}
