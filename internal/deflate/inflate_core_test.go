package deflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// corpusEntries reads the []byte values of a committed native-fuzz
// corpus directory (testdata/fuzz/<name>).
func corpusEntries(t testing.TB, name string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus %s: %v (%d files)", name, err, len(files))
	}
	var out [][]byte
	for _, fn := range files {
		raw, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "[]byte(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
			out = append(out, []byte(s))
		}
	}
	return out
}

// FuzzInflateDifferential runs every input through three decoders: the
// table-driven core (called directly, without the recover() backstop),
// the bit-serial puff oracle and stdlib compress/flate. The core and
// the oracle must agree exactly — output bytes and accept/reject — and
// so must the streaming wrapper fed a few bytes per Read. Stdlib may
// disagree on accept/reject only in the two RFC 1951 corner cases the
// puff rules settle differently, and the test names and checks which.
// Seeds: the FuzzInflate corpus plus the FuzzRoundTripAllLevels corpus
// compressed at every fuzzed level, as fixed and as dynamic blocks.
func FuzzInflateDifferential(f *testing.F) {
	seed, _ := FixedDeflate(nil)
	f.Add(seed)
	f.Add([]byte{0x01, 0x00, 0x00, 0xFF, 0xFF})
	for _, e := range corpusEntries(f, "FuzzInflate") {
		f.Add(e)
	}
	for _, data := range corpusEntries(f, "FuzzRoundTripAllLevels") {
		for _, lvl := range fuzzLevels {
			p := lzss.LevelParams(lvl, 32768, 15)
			cmds, _, err := lzss.Compress(data, p)
			if err != nil {
				f.Fatal(err)
			}
			fixed, err := FixedDeflate(cmds)
			if err != nil {
				f.Fatal(err)
			}
			dynamic, err := DynamicDeflate(cmds)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(fixed)
			f.Add(dynamic)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOut = 1 << 20
		lim := DecodeLimits{MaxOutputBytes: maxOut}
		got, err := inflate(data, nil, lim)
		want, corners, werr := puffInflate(data, nil, lim)
		if (err == nil) != (werr == nil) {
			t.Fatalf("core and puff disagree: core %v, puff %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if errors.Is(err, ErrLimit) != errors.Is(werr, ErrLimit) ||
				errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(werr, io.ErrUnexpectedEOF) {
				t.Fatalf("core and puff type the rejection differently: core %v, puff %v", err, werr)
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("core and puff outputs differ (%d vs %d bytes)", len(got), len(want))
		}

		// The streaming wrapper runs the same core across input and
		// window boundaries.
		sout, serr := io.ReadAll(io.LimitReader(NewStreamInflater(&chunkReader{r: bytes.NewReader(data)}), maxOut+1))
		switch {
		case err == nil && (serr != nil || !bytes.Equal(sout, got)):
			t.Fatalf("stream disagrees with core: %d vs %d bytes, %v", len(sout), len(got), serr)
		case errors.Is(err, ErrLimit):
			if serr == nil && len(sout) <= maxOut {
				t.Fatalf("stream accepted %d bytes the core rejected over the cap", len(sout))
			}
		case err != nil && serr == nil:
			t.Fatalf("stream accepted what the core rejected: %v", err)
		}

		sdl, sderr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data)), maxOut+1))
		stdOK := sderr == nil && len(sdl) <= maxOut
		switch {
		case errors.Is(err, ErrLimit):
			if stdOK {
				t.Fatalf("stdlib decoded %d bytes where the core hit the %d-byte cap", len(sdl), maxOut)
			}
		case err == nil && stdOK:
			if !bytes.Equal(got, sdl) {
				t.Fatalf("core and stdlib outputs differ (%d vs %d bytes)", len(got), len(sdl))
			}
		case err == nil:
			// RFC 1951 §3.2.7 defines an incomplete code only as the
			// single one-bit distance code; puff (and the core) accept
			// any incomplete code whose unused patterns never occur,
			// stdlib refuses all but a single one-bit code.
			if !corners.incomplete {
				t.Fatalf("stdlib rejected (%v) a stream with no incomplete code that the core accepts", sderr)
			}
		case stdOK:
			// RFC 1951 §3.2.7: "One distance code of zero bits means
			// that there are no distance codes used at all". Stdlib
			// accepts an all-zero distance code until a distance is
			// decoded; puff rejects the empty code when it is built.
			if !corners.emptyDist || !strings.Contains(err.Error(), "empty code") {
				t.Fatalf("core rejected (%v) a stream stdlib accepts, without an empty distance code", err)
			}
		}
	})
}

// hostileWriter hand-assembles Deflate bit streams for the bounds tests.
type hostileWriter struct {
	buf bytes.Buffer
	bw  *bitio.Writer
}

func newHostile() *hostileWriter {
	h := &hostileWriter{}
	h.bw = bitio.NewWriter(&h.buf)
	return h
}

func (h *hostileWriter) bits(v uint32, n uint) *hostileWriter { h.bw.WriteBits(v, n); return h }

// code writes a Huffman code MSB first, as Deflate stores it.
func (h *hostileWriter) code(v uint32, n uint) *hostileWriter { h.bw.WriteBitsRev(v, n); return h }

func (h *hostileWriter) bytes() []byte {
	h.bw.Flush()
	return h.buf.Bytes()
}

// dynamicHeader starts a final dynamic block with 257 literal/length
// and 1 distance code lengths, coded with a code-length code in which
// clSymA and clSymB each get a one-bit code (clSymA < clSymB: '0' and
// '1').
func dynamicHeader(clSymA, clSymB int) *hostileWriter {
	h := newHostile().bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(15, 4)
	for _, sym := range codeLengthOrder {
		l := uint32(0)
		if sym == clSymA || sym == clSymB {
			l = 1
		}
		h.bits(l, 3)
	}
	return h
}

// TestInflateCoreBoundsByConstruction drives the decode core directly —
// no recover() between it and the test — over the committed FuzzInflate
// corpus, every truncation of it and of valid streams, and hand-built
// hostile streams: truncated and over-subscribed tables, distances past
// the history and repeat-code overflow. Every rejection must be typed
// and nothing may panic.
func TestInflateCoreBoundsByConstruction(t *testing.T) {
	fuzzLim := DecodeLimits{MaxOutputBytes: 1 << 16, MaxBlocks: 1 << 10}
	for i, in := range corpusEntries(t, "FuzzInflate") {
		for cut := 0; cut <= len(in); cut++ {
			if _, err := inflate(in[:cut], nil, fuzzLim); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corpus entry %d cut at %d: untyped rejection %v", i, cut, err)
			}
		}
	}
	// Every proper prefix of a valid stream is a typed truncation.
	data := []byte(strings.Repeat("bounds by construction, not by recover ", 300))
	cmds := lzssCompress(t, data)
	fixed, _ := FixedDeflate(cmds)
	dynamic, _ := DynamicDeflate(cmds)
	stored := append([]byte{0x01, 0x05, 0x00, 0xFA, 0xFF}, "hello"...)
	for i, in := range [][]byte{fixed, dynamic, stored} {
		for cut := 0; cut < len(in); cut++ {
			_, err := inflate(in[:cut], nil, fuzzLim)
			if !errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("valid stream %d cut at %d/%d: %v is not a typed truncation", i, cut, len(in), err)
			}
		}
	}

	hist := []byte("0123456789")
	cases := []struct {
		name string
		in   []byte
		hist []byte
		want string
	}{
		{"over-subscribed code-length code",
			newHostile().bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).
				bits(1, 3).bits(1, 3).bits(1, 3).bits(1, 3).bytes(), nil, "over-subscribed"},
		{"over-subscribed literal/length code",
			func() []byte {
				h := dynamicHeader(1, 2)
				for i := 0; i < 258; i++ {
					h.code(0, 1) // length 1, 258 times
				}
				return h.bytes()
			}(), nil, "over-subscribed"},
		{"repeat-code overflow",
			dynamicHeader(1, 18).code(1, 1).bits(127, 7).code(1, 1).bits(127, 7).bytes(), nil, "repeat overflow"},
		{"repeat with no previous length",
			dynamicHeader(1, 16).code(1, 1).bits(0, 2).bytes(), nil, "no previous length"},
		{"truncated table",
			dynamicHeader(1, 2).code(0, 1).code(1, 1).bytes(), nil, "truncated"},
		{"distance past the output",
			newHostile().bits(1, 1).bits(1, 2).code(1, 7).code(0, 5).bytes(), nil, "distance 1 exceeds"},
		{"distance past the history",
			newHostile().bits(1, 1).bits(1, 2).code(1, 7).code(6, 5).bits(2, 2).bytes(), hist, "distance 11 exceeds"},
		{"reserved distance symbol",
			newHostile().bits(1, 1).bits(1, 2).code(1, 7).code(30, 5).bytes(), nil, "distance symbol 30"},
		{"reserved literal/length symbol",
			newHostile().bits(1, 1).bits(1, 2).code(0xC6, 8).bytes(), nil, "literal/length symbol 286"},
	}
	for _, c := range cases {
		_, err := inflate(c.in, c.hist, DefaultDecodeLimits())
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a typed rejection mentioning %q", c.name, err, c.want)
		}
		_, _, perr := puffInflate(c.in, c.hist, DefaultDecodeLimits())
		if perr == nil {
			t.Errorf("%s: the puff oracle accepts it", c.name)
		}
	}
	// The same distance decodes once the history reaches it.
	in := newHostile().bits(1, 1).bits(1, 2).code(1, 7).code(6, 5).bits(2, 2).code(0, 7).bytes()
	if out, err := inflate(in, []byte("0123456789X"), DefaultDecodeLimits()); err != nil || string(out) != "012" {
		t.Fatalf("distance 11 into 11 bytes of history: %q, %v", out, err)
	}
}

// TestStreamInflaterBlockLimit is the streaming half of the MaxBlocks
// guarantee: endless empty stored blocks produce no output, so without
// the cap one Read would never return. The stream applies
// DefaultDecodeLimits().MaxBlocks.
func TestStreamInflaterBlockLimit(t *testing.T) {
	empty := []byte{0x00, 0x00, 0x00, 0xFF, 0xFF}
	n := DefaultDecodeLimits().MaxBlocks + 1
	stream := append(bytes.Repeat(empty, n), 0x01, 0x00, 0x00, 0xFF, 0xFF)
	_, err := io.ReadAll(NewStreamInflater(bytes.NewReader(stream)))
	if !errors.Is(err, ErrLimit) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d empty stored blocks: %v, want ErrLimit and ErrCorrupt", n, err)
	}
	// At the cap the stream still decodes.
	ok := append(bytes.Repeat(empty, n-2), 0x01, 0x00, 0x00, 0xFF, 0xFF)
	if out, err := io.ReadAll(NewStreamInflater(bytes.NewReader(ok))); err != nil || len(out) != 0 {
		t.Fatalf("%d blocks: %d bytes, %v", n-1, len(out), err)
	}
}

// chunkReader returns 1-13 bytes per Read, cycling, so input runs out
// at every kind of decode boundary.
type chunkReader struct {
	r io.Reader
	i int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.i++
	if n := 1 + c.i*7%13; n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// TestStreamInflaterMatchesOneShot decodes the same streams through the
// window wrapper under adversarial read sizes, and through ParseCommands
// (the window core recording commands), and requires the input back:
// single-block streams at two levels, and a stream of dynamic and fixed
// blocks each followed by a sync-flush stored block.
func TestStreamInflaterMatchesOneShot(t *testing.T) {
	data := mixedCorpus(300<<10, 7)
	streams := map[string][]byte{}
	for _, lvl := range []lzss.Level{1, 6} {
		p := lzss.LevelParams(lvl, 32768, 15)
		cmds, _, err := lzss.Compress(data, p)
		if err != nil {
			t.Fatal(err)
		}
		if streams["level "+strconv.Itoa(int(lvl))], err = ZlibCompress(cmds, data, p.Window); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 9000 {
		zw.Write(data[off:min(off+9000, len(data))])
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	streams["flushed"] = buf.Bytes()
	for name, z := range streams {
		cmds, err := ParseCommands(z[2 : len(z)-4])
		if err != nil {
			t.Fatalf("%s: ParseCommands: %v", name, err)
		}
		if out, err := token.Expand(cmds); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("%s: expanded commands: %d/%d bytes, %v", name, len(out), len(data), err)
		}
		for rname, wrap := range map[string]func(io.Reader) io.Reader{
			"one-byte": iotest.OneByteReader,
			"half":     iotest.HalfReader,
			"data-eof": iotest.DataErrReader,
			"chunked":  func(r io.Reader) io.Reader { return &chunkReader{r: r} },
		} {
			zr, err := NewReader(wrap(bytes.NewReader(z)))
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(zr)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("%s, %s reads: %d/%d bytes, %v", name, rname, len(out), len(data), err)
			}
		}
	}
}
