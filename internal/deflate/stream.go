package deflate

import (
	"encoding/binary"
	"fmt"
	"io"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// Writer is a streaming zlib compressor: an incremental LZSS stage
// (lzss.StreamCompressor) feeding per-block Huffman encoding. Each
// block is emitted as fixed or dynamic, whichever is smaller for its
// symbol statistics (writeBlock); Close finishes the stream with the
// final block and the Adler-32 trailer. Output is standard RFC 1950.
type Writer struct {
	w       *countWriter
	bw      *bitio.Writer
	sc      *lzss.StreamCompressor
	adler   *Adler32
	pending []token.Command
	plan    dynamicPlan
	window  int
	closed  bool
	err     error
	// Observability accumulators, flushed to the deflate_stream_*
	// metrics at block/flush/close granularity.
	obsIn, obsInFlushed, obsOutFlushed int64
}

// countWriter counts bytes on their way to the underlying writer so
// the stream metrics can report compressed output volume without
// involving the bit writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// flushObs publishes the writer's input/output byte deltas (and the
// LZSS stage's counters) into the wired registry, if any.
func (zw *Writer) flushObs() {
	k := deflateObs.Load()
	if k == nil {
		return
	}
	k.streamInBytes.Add(zw.obsIn - zw.obsInFlushed)
	zw.obsInFlushed = zw.obsIn
	k.streamOutBytes.Add(zw.w.n - zw.obsOutFlushed)
	zw.obsOutFlushed = zw.w.n
	zw.sc.FlushObs()
}

// blockCommands is how many LZSS commands accumulate before a block is
// cut: large enough for stable per-block statistics, small enough to
// bound latency and memory.
const blockCommands = 32768

// NewWriter starts a zlib stream on w with matching parameters p. The
// LZSS parse is greedy whatever p.Lazy says: the commands equal
// lzss.Compress with Lazy cleared (see lzss.StreamCompressor), so a
// lazy preset such as LevelParams(6, …) streams at greedy ratio.
func NewWriter(w io.Writer, p lzss.Params) (*Writer, error) {
	sc, err := lzss.NewStreamCompressor(p)
	if err != nil {
		return nil, err
	}
	hdr, err := ZlibHeader(p.Window)
	if err != nil {
		return nil, err
	}
	cw := &countWriter{w: w}
	if _, err := cw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{
		w:      cw,
		bw:     bitio.NewWriter(cw),
		sc:     sc,
		adler:  NewAdler32(),
		window: p.Window,
	}, nil
}

// Write implements io.Writer.
func (zw *Writer) Write(p []byte) (int, error) {
	if zw.err != nil {
		return 0, zw.err
	}
	if zw.closed {
		return 0, fmt.Errorf("deflate: write after Close")
	}
	zw.adler.Write(p)
	zw.obsIn += int64(len(p))
	zw.pending = append(zw.pending, zw.sc.Write(p)...)
	for len(zw.pending) >= blockCommands {
		if err := zw.emitBlock(zw.pending[:blockCommands], false); err != nil {
			return 0, err
		}
		zw.pending = zw.pending[blockCommands:]
	}
	return len(p), nil
}

// emitBlock writes one block, choosing the cheaper of fixed/dynamic.
func (zw *Writer) emitBlock(cmds []token.Command, final bool) error {
	if k := deflateObs.Load(); k != nil {
		k.streamBlocks.Inc()
	}
	zw.err = writeBlock(zw.bw, &zw.plan, cmds, final)
	return zw.err
}

// Flush emits everything written so far as complete, byte-aligned
// Deflate blocks (ZLib's Z_SYNC_FLUSH): the LZSS stage processes its
// buffered tail, the pending commands become a block, and an empty
// stored block re-aligns the bit stream so a reader sees all data
// without waiting for Close. Compression at the flush point degrades
// slightly, as with any sync flush.
func (zw *Writer) Flush() error {
	if zw.err != nil {
		return zw.err
	}
	if zw.closed {
		return fmt.Errorf("deflate: flush after Close")
	}
	if k := deflateObs.Load(); k != nil {
		k.streamFlushes.Inc()
	}
	zw.pending = append(zw.pending, zw.sc.Flush()...)
	if len(zw.pending) > 0 {
		if err := zw.emitBlock(zw.pending, false); err != nil {
			return err
		}
		zw.pending = zw.pending[:0]
	}
	writeStoredHeader(zw.bw, 0, false) // byte alignment + a visible flush marker
	if err := zw.bw.Flush(); err != nil {
		zw.err = err
	}
	zw.flushObs()
	return zw.err
}

// Close flushes the final block and the Adler-32 trailer.
func (zw *Writer) Close() error {
	if zw.err != nil {
		return zw.err
	}
	if zw.closed {
		return nil
	}
	zw.closed = true
	zw.pending = append(zw.pending, zw.sc.Close()...)
	// Emit everything left as the final block (an empty final block is
	// legal and needed for empty streams).
	if err := zw.emitBlock(zw.pending, true); err != nil {
		return err
	}
	zw.pending = nil
	if err := zw.bw.Flush(); err != nil {
		zw.err = err
		return err
	}
	sum := zw.adler.Sum32()
	_, err := zw.w.Write([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	zw.err = err
	zw.flushObs()
	return err
}

// StreamInflater is an incremental raw-Deflate io.Reader: the decode
// core run into a sliding window with 32 KiB of history, pulling input
// as it needs it. It enforces DefaultDecodeLimits().MaxBlocks, so
// endless empty blocks are rejected instead of hanging a Read.
type StreamInflater struct {
	f     inflater
	src   io.Reader
	buf   []byte // input buffer behind f.br.in
	rd    int    // next byte of f.out to hand out
	err   error
	adler *Adler32 // zlib framing (NewReader): sums output, checks trailer
}

// Window: 32 KiB of history, 64 KiB decoded per slide, one match of slack.
const (
	windowHistory = 1 << 15
	windowChunk   = 1 << 16
)

// NewStreamInflater decodes the raw Deflate stream from r.
func NewStreamInflater(r io.Reader) *StreamInflater {
	return &StreamInflater{src: r, buf: make([]byte, 32<<10), f: inflater{
		out:     make([]byte, windowHistory+windowChunk+token.MaxMatch),
		window:  true,
		yieldAt: windowHistory + windowChunk,
		lim:     DecodeLimits{MaxBlocks: DefaultDecodeLimits().MaxBlocks},
		tabs:    new(inflateTables),
	}}
}

// Read implements io.Reader.
func (d *StreamInflater) Read(p []byte) (int, error) {
	for d.rd == d.f.w {
		if d.err != nil {
			return 0, d.err
		}
		d.err = d.decode()
	}
	n := copy(p, d.f.out[d.rd:d.f.w])
	d.rd += n
	return n, nil
}

// decode runs the core until it has output, the stream ends (io.EOF)
// or it is rejected; Read drains the output first.
func (d *StreamInflater) decode() error {
	if d.f.w > d.f.yieldAt {
		d.f.w = copy(d.f.out, d.f.out[d.f.w-windowHistory:d.f.w])
		d.rd = d.f.w
	}
	for {
		start := d.f.w
		err := d.f.run()
		if d.adler != nil {
			d.adler.Write(d.f.out[start:d.f.w])
		}
		switch {
		case err == nil:
			return d.end()
		case err == errNeedInput && d.rd == d.f.w:
			if err := d.fill(); err != nil {
				return err
			}
		case err == errNeedInput || err == errYield:
			return nil // hand out what is decoded before reading on
		default:
			return err
		}
	}
}

// end finishes the stream, checking a zlib trailer.
func (d *StreamInflater) end() error {
	if d.adler == nil {
		return io.EOF
	}
	tr, err := d.aligned(4)
	if err != nil {
		return err
	}
	if got, want := d.adler.Sum32(), binary.BigEndian.Uint32(tr); got != want {
		return fmt.Errorf("%w: adler32 %08x != %08x", ErrCorrupt, got, want)
	}
	return io.EOF
}

// fill compacts the unread input and reads more; no data means its end.
// Whole bytes still in the bit buffer are kept, so unload can return them.
func (d *StreamInflater) fill() error {
	br := &d.f.br
	keep := br.pos - int(br.nb-br.over)>>3
	n := copy(d.buf, br.in[keep:])
	m, err := d.src.Read(d.buf[n:])
	br.in, br.pos = d.buf[:n+m], br.pos-keep
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	d.f.eof = err != nil || m == 0
	return nil
}

// aligned returns the next n byte-aligned input bytes (zlib framing).
func (d *StreamInflater) aligned(n int) ([]byte, error) {
	br := &d.f.br
	br.unload()
	for len(br.in)-br.pos < n {
		if d.f.eof {
			return nil, errTruncated
		}
		if err := d.fill(); err != nil {
			return nil, err
		}
	}
	br.pos += n
	return br.in[br.pos-n : br.pos], nil
}

// ParseCommands decodes a raw Deflate stream into the LZSS command
// stream it encodes — the view a hardware decompressor's copy engine
// consumes. Stored-block bytes become literal commands.
//
// token.Expand(ParseCommands(x)) equals Inflate(x) for every valid x;
// the property is enforced by tests.
func ParseCommands(data []byte) ([]token.Command, error) {
	return ParseCommandsWithHistory(data, 0)
}

// ParseCommandsWithHistory is ParseCommands for streams whose matches
// may reach back into `history` bytes of preset dictionary. It caps
// neither blocks nor output.
func ParseCommandsWithHistory(data []byte, history int) ([]token.Command, error) {
	d := NewStreamInflater(nil)
	d.f.br.in, d.f.eof, d.f.lim, d.f.record = data, true, DecodeLimits{}, true
	d.f.w = min(history, windowHistory) // zero bytes: only distances matter
	if _, err := io.Copy(io.Discard, d); err != nil {
		return nil, err
	}
	return d.f.cmds, nil
}

// NewReader parses the zlib (RFC 1950) header from r and returns a
// streaming decompressor for the body; on clean EOF the Adler-32
// trailer has been verified.
func NewReader(r io.Reader) (*StreamInflater, error) {
	d := NewStreamInflater(r)
	hdr, err := d.aligned(2)
	if err == nil {
		err = checkZlibHeader(hdr, false)
	}
	if err != nil {
		return nil, err
	}
	d.adler = NewAdler32()
	return d, nil
}
