package deflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"lzssfpga/internal/token"
)

// One table-driven inflate core sits behind every decoder (see
// docs/ARCHITECTURE.md, "Hardened inflate"). The bit-serial decoder it
// replaced is kept in the tests as an independent oracle.

// ErrCorrupt reports a malformed Deflate or ZLib stream.
var ErrCorrupt = errors.New("deflate: corrupt stream")

var (
	errTruncated = fmt.Errorf("%w: truncated stream: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	// errNeedInput and errYield suspend a windowed decode at a symbol or
	// block boundary; one-shot decodes never see them.
	errNeedInput = errors.New("deflate: need input")
	errYield     = errors.New("deflate: window full")
)

// codeLengthOrder is the permuted order in which dynamic-block code
// length code lengths are stored (RFC 1951 §3.2.7).
var codeLengthOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// A tabEntry is one lookup's result: bits 0-3 code length, 4-7 extra
// bits (links: sub-table width), 8-10 kind, 16-31 the value. Unused bit
// patterns are kindInvalid with length 15, what a bit-serial decoder
// reads before giving up, so input ending sooner is a truncation.
type tabEntry uint32

const (
	kindLit     = 0 << 8 // literal byte or code-length symbol
	kindBase    = 1 << 8 // length or distance base plus extra bits
	kindEOB     = 2 << 8
	kindLink    = 3 << 8 // continue in an overflow sub-table
	kindBadSym  = 4 << 8 // reserved symbol: lit/len 286-287, distance 30-31
	kindInvalid = 5 << 8
	kindMask    = 7 << 8

	invalidEntry = tabEntry(maxCodeLen) | kindInvalid

	// Primary-table widths. On the mixed serving corpus 9/7 bits decode
	// ~30% slower; code-length codes (at most 7 bits) need no sub-table.
	litTableBits  = 10
	distTableBits = 8
	clTableBits   = 7
)

// Per-alphabet entry templates (everything but the code length; the
// code-length alphabet's are the first 19 literal ones) and the shared,
// immutable fixed-Huffman tables (RFC 1951 §3.2.6).
var litSyms, distSyms, fixedLit, fixedDist = decodeTables()

func decodeTables() (lit [numLitLenSym]tabEntry, dist [32]tabEntry, fixedLit, fixedDist huffTable) {
	for s := 0; s < 256; s++ {
		lit[s] = tabEntry(s)<<16 | kindLit
	}
	lit[endOfBlock] = kindEOB
	for i := range lengthBase {
		lit[257+i] = tabEntry(lengthBase[i])<<16 | tabEntry(lengthExtra[i])<<4 | kindBase
	}
	lit[286], lit[287] = 286<<16|kindBadSym, 287<<16|kindBadSym
	for i := range distBase {
		dist[i] = tabEntry(distBase[i])<<16 | tabEntry(distExtra[i])<<4 | kindBase
	}
	dist[30], dist[31] = 30<<16|kindBadSym, 31<<16|kindBadSym
	if fixedLit.build(fixedLitLenLengths(), lit[:], litTableBits) != nil ||
		fixedDist.build(fixedDistLengths(), dist[:], distTableBits) != nil {
		panic("deflate: fixed Huffman tables")
	}
	return
}

// huffTable decodes one canonical Huffman code: its first 1<<primary
// entries are indexed by the next input bits, overflow sub-tables
// follow. Each alphabet has a fixed primary width (litTableBits, ...).
type huffTable []tabEntry

// build fills t for the code with the given per-symbol lengths. Like the
// bit-serial decoder it rejects lengths over 15, empty and
// over-subscribed codes, and accepts incomplete ones.
func (t *huffTable) build(lengths []uint8, syms []tabEntry, primary uint) error {
	var count [maxCodeLen + 1]int
	for _, l := range lengths {
		if l > maxCodeLen {
			return fmt.Errorf("%w: code length %d", ErrCorrupt, l)
		}
		count[l]++
	}
	if count[0] == len(lengths) {
		return fmt.Errorf("%w: empty code", ErrCorrupt)
	}
	left, maxLen := 1, uint(0)
	for l := 1; l <= maxCodeLen; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
		}
		if count[l] > 0 {
			maxLen = uint(l)
		}
	}
	// Symbols in canonical order: by length, then symbol.
	var offs [maxCodeLen + 1]int
	for l := 1; l < maxCodeLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [numLitLenSym]uint16
	for s, l := range lengths {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	size, subBits := 1<<primary, uint(0)
	if maxLen > primary {
		subBits = maxLen - primary
	}
	tab := (*t)[:0]
	for i := 0; i < size; i++ {
		tab = append(tab, invalidEntry)
	}
	// Codes sharing a primary prefix are contiguous in canonical order,
	// so each prefix's sub-table is opened once.
	code, prev, sub, subPrefix := 0, uint(0), 0, -1
	for _, s := range sorted[:len(lengths)-count[0]] {
		l := uint(lengths[s])
		code <<= l - prev
		prev = l
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		code++
		e := syms[s] | tabEntry(l)
		if l <= primary {
			for j := rev; j < size; j += 1 << l {
				tab[j] = e
			}
			continue
		}
		if prefix := rev & (size - 1); prefix != subPrefix {
			subPrefix, sub = prefix, len(tab)
			tab[prefix] = tabEntry(sub)<<16 | tabEntry(subBits)<<4 | kindLink
			for j := 0; j < 1<<subBits; j++ {
				tab = append(tab, invalidEntry)
			}
		}
		for j := rev >> primary; j < 1<<subBits; j += 1 << (l - primary) {
			tab[sub+j] = e
		}
	}
	*t = tab
	return nil
}

// lookup resolves the entry of the code in the low bits of b.
func lookup(t []tabEntry, primary uint, b uint64) tabEntry {
	e := t[b&(1<<primary-1)]
	if e&kindMask == kindLink {
		e = t[uint(e>>16)+uint(b>>primary)&(1<<(e>>4&15)-1)]
	}
	return e
}

// bitReader is a 64-bit LSB-first bit buffer refilled a word at a time
// from in. Past its end, refill pads with zero bits counted in over; a
// read that dips into them (nb < over) ran past the input.
type bitReader struct {
	in   []byte
	pos  int    // next byte of in to load
	b    uint64 // buffered bits, next bit lowest
	nb   uint   // bits in b, padding included
	over uint   // zero padding bits at the top of b
}

// refill tops the buffer up to at least 56 bits.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.in) {
		r.b |= binary.LittleEndian.Uint64(r.in[r.pos:]) << r.nb
		r.pos += int(63-r.nb) >> 3
		r.nb |= 56
		return
	}
	for ; r.nb <= 56; r.nb += 8 {
		if r.pos < len(r.in) {
			r.b |= uint64(r.in[r.pos]) << r.nb
			r.pos++
		} else {
			r.over += 8
		}
	}
}

// read consumes n <= 32 bits; ok is false when they ran past the input.
func (r *bitReader) read(n uint) (v uint32, ok bool) {
	if r.nb < n {
		r.refill()
	}
	v = uint32(r.b & (1<<n - 1))
	r.b >>= n
	r.nb -= n
	return v, r.nb >= r.over
}

// strip drops the padding so more input can follow.
func (r *bitReader) strip() {
	r.nb -= r.over
	r.b &= 1<<r.nb - 1
	r.over = 0
}

// unload byte-aligns and gives the buffered whole bytes back to in, so
// pos is the next unread byte (stored blocks, zlib header and trailer).
func (r *bitReader) unload() {
	r.nb &^= 7
	r.pos -= int(r.nb-r.over) >> 3
	r.b, r.nb, r.over = 0, 0, 0
}

const (
	stateHeader = iota
	stateStored
	stateHuffman
	stateDone
)

// inflater is the core's state. out[:w] is everything matches may
// reach (preset history included). A one-shot decode grows out; a
// windowed one yields once w passes yieldAt, and its owner slides it.
type inflater struct {
	br      bitReader
	eof     bool // no input will follow br.in
	out     []byte
	w       int
	window  bool
	yieldAt int
	lim     DecodeLimits // MaxOutputBytes bounds w, history included

	state     int
	final     bool
	blocks    int
	stored    int // bytes left in the current stored block
	lit, dist *huffTable
	tabs      *inflateTables

	record bool // collect the command stream (ParseCommands)
	cmds   []token.Command
}

// inflateTables is the reusable scratch of dynamic blocks.
type inflateTables struct {
	lit, dist, cl huffTable
	lens          [286 + numDistSym]uint8
}

var tablesPool = sync.Pool{New: func() any { return new(inflateTables) }}

// run decodes until the final block ends (nil), the window is full
// (errYield), input runs short (errNeedInput) or the stream is rejected.
func (f *inflater) run() (err error) {
	for err == nil {
		switch f.state {
		case stateHeader:
			saved := f.br
			if err = f.blockHeader(); err == errNeedInput {
				f.br = saved
				f.br.strip()
			}
		case stateStored:
			err = f.storedBlock()
		case stateHuffman:
			err = f.huffmanBlock()
		default:
			return nil
		}
	}
	return err
}

// truncated is the verdict on a read past the end of the input.
func (f *inflater) truncated() error {
	if f.eof {
		return errTruncated
	}
	return errNeedInput
}

func (f *inflater) endBlock() {
	f.state = stateHeader
	if f.final {
		f.state = stateDone
	}
}

// blockHeader parses BFINAL/BTYPE and what follows: LEN/NLEN of a
// stored block, the code tables of a dynamic one.
func (f *inflater) blockHeader() error {
	if f.lim.MaxBlocks > 0 && f.blocks >= f.lim.MaxBlocks {
		return fmt.Errorf("%w: %w: more than %d blocks", ErrCorrupt, ErrLimit, f.lim.MaxBlocks)
	}
	v, ok := f.br.read(3)
	if !ok {
		return f.truncated()
	}
	f.final = v&1 == 1
	switch v >> 1 {
	case 0:
		f.br.b >>= f.br.nb & 7 // byte-align; padding is whole bytes
		f.br.nb &^= 7
		if v, ok = f.br.read(32); !ok {
			return f.truncated()
		}
		if v&0xFFFF != ^v>>16 {
			return fmt.Errorf("%w: stored length check", ErrCorrupt)
		}
		f.stored, f.state = int(v&0xFFFF), stateStored
	case 1:
		f.lit, f.dist, f.state = &fixedLit, &fixedDist, stateHuffman
	case 2:
		if err := f.dynamicTables(); err != nil {
			return err
		}
		f.lit, f.dist, f.state = &f.tabs.lit, &f.tabs.dist, stateHuffman
	default:
		return fmt.Errorf("%w: reserved block type", ErrCorrupt)
	}
	f.blocks++
	return nil
}

// dynamicTables reads a dynamic block's code-length code and RLE-coded
// code lengths (RFC 1951 §3.2.7) and builds both tables.
func (f *inflater) dynamicTables() error {
	br, t := &f.br, f.tabs
	v, ok := br.read(14)
	if !ok {
		return f.truncated()
	}
	nLit, nDist, nCl := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nLit > 286 || nDist > numDistSym {
		return fmt.Errorf("%w: dynamic header counts", ErrCorrupt)
	}
	var clLens [19]uint8
	for i := 0; i < nCl; i++ {
		if v, ok = br.read(3); !ok {
			return f.truncated()
		}
		clLens[codeLengthOrder[i]] = uint8(v)
	}
	if err := t.cl.build(clLens[:], litSyms[:19], clTableBits); err != nil {
		return err
	}
	lens := t.lens[:nLit+nDist]
	for i := 0; i < len(lens); {
		if br.nb < maxCodeLen {
			br.refill()
		}
		e := lookup(t.cl, clTableBits, br.b)
		if _, ok = br.read(uint(e & 15)); !ok {
			return f.truncated()
		}
		if e&kindMask == kindInvalid {
			return symbolError(e, "")
		}
		sym := int(e >> 16)
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		if sym == 16 && i == 0 {
			return fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
		}
		// 16: previous length 3-6 times; 17, 18: zero 3-10, 11-138 times.
		val := uint8(0)
		if sym == 16 {
			val = lens[i-1]
		}
		if v, ok = br.read([3]uint{2, 3, 7}[sym-16]); !ok {
			return f.truncated()
		}
		end := i + [3]int{3, 3, 11}[sym-16] + int(v)
		if end > len(lens) {
			return fmt.Errorf("%w: repeat overflow", ErrCorrupt)
		}
		for ; i < end; i++ {
			lens[i] = val
		}
	}
	if err := t.lit.build(lens[:nLit], litSyms[:], litTableBits); err != nil {
		return err
	}
	return t.dist.build(lens[nLit:], distSyms[:], distTableBits)
}

// storedBlock copies a stored block straight from the input (windowed:
// as far as input and window room allow).
func (f *inflater) storedBlock() error {
	if !f.window {
		if err := f.makeRoom(f.w, f.stored); err != nil {
			return err
		}
	}
	br := &f.br
	br.unload()
	for f.stored > 0 {
		avail := len(br.in) - br.pos
		n := min(f.stored, avail)
		if f.window {
			n = min(n, len(f.out)-f.w)
		} else if n < f.stored {
			return f.truncated()
		}
		if n == 0 {
			if avail == 0 {
				return f.truncated()
			}
			return errYield
		}
		src := br.in[br.pos : br.pos+n]
		copy(f.out[f.w:], src)
		if f.record {
			for _, c := range src {
				f.cmds = append(f.cmds, token.Lit(c))
			}
		}
		f.w += n
		br.pos += n
		f.stored -= n
	}
	f.endBlock()
	return nil
}

// makeRoom fits need more bytes at w in a one-shot output buffer by
// doubling it up to MaxOutputBytes, past which it is the limit error.
func (f *inflater) makeRoom(w, need int) error {
	m := f.lim.MaxOutputBytes
	if m > 0 && w+need > m {
		return errOutputLimit(f.lim)
	}
	if w+need > len(f.out) {
		n := max(2*len(f.out), w+need)
		if m > 0 {
			n = min(n, m)
		}
		f.out = append(f.out[:w], make([]byte, n-w)...)
	}
	return nil
}

// symbolError rejects a decoded entry that is no symbol of alphabet.
func symbolError(e tabEntry, alphabet string) error {
	if e&kindMask == kindBadSym {
		return fmt.Errorf("%w: %s symbol %d", ErrCorrupt, alphabet, e>>16)
	}
	return fmt.Errorf("%w: invalid Huffman code", ErrCorrupt)
}

// huffmanBlock is the hot loop. State lives in locals, one refill covers
// a literal or a whole match (15+5 length, 15+13 distance bits), and near
// the end of the input each symbol is checkpointed so a windowed decode
// can resume there once more input arrives.
func (f *inflater) huffmanBlock() error {
	in, pos, b, nb, over := f.br.in, f.br.pos, f.br.b, f.br.nb, f.br.over
	out, w := f.out, f.w
	lit, dist := *f.lit, *f.dist
	yieldAt, record := f.yieldAt, f.record
	var err error
	var cp bitReader
	for {
		if w > yieldAt {
			err = errYield
			break
		}
		if nb < 48 {
			if pos+8 <= len(in) {
				b |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				r := bitReader{in, pos, b, nb, over}
				r.refill()
				pos, b, nb, over = r.pos, r.b, r.nb, r.over
			}
		}
		if over > 0 {
			cp = bitReader{in, pos, b, nb, over}
		}
		e := lookup(lit, litTableBits, b)
		b >>= e & 15
		if nb -= uint(e & 15); nb < over {
			err = f.truncated()
			break
		}
		if e&kindMask == kindLit {
			if w >= len(out) {
				if err = f.makeRoom(w, 1); err != nil {
					break
				}
				out = f.out
			}
			out[w] = byte(e >> 16)
			w++
			if record {
				f.cmds = append(f.cmds, token.Lit(byte(e>>16)))
			}
			continue
		}
		if e&kindMask == kindEOB {
			f.endBlock()
			break
		}
		if e&kindMask != kindBase {
			err = symbolError(e, "literal/length")
			break
		}
		x := uint(e >> 4 & 15)
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		e = lookup(dist, distTableBits, b)
		b >>= e & 15
		nb -= uint(e & 15)
		x = uint(e >> 4 & 15)
		d := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		if nb -= x; nb < over {
			err = f.truncated()
			break
		}
		if e&kindMask != kindBase {
			err = symbolError(e, "distance")
			break
		}
		if d > w {
			err = fmt.Errorf("%w: distance %d exceeds output %d", ErrCorrupt, d, w)
			break
		}
		if length > len(out)-w {
			if err = f.makeRoom(w, length); err != nil {
				break
			}
			out = f.out
		}
		end := w + length
		if d >= 8 && end+8 <= len(out) {
			// Word copy: every load reads bytes already written, and the
			// overshoot past end lands in the buffer's slack.
			for s := w - d; w < end; s, w = s+8, w+8 {
				binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[s:]))
			}
		} else {
			// One copy, or for overlapping matches one per doubling run.
			for p := w; p < end; {
				p += copy(out[p:end], out[w-d:p])
			}
		}
		w = end
		if record {
			f.cmds = append(f.cmds, token.Copy(d, length))
		}
	}
	f.br, f.out, f.w = bitReader{in, pos, b, nb, over}, out, w
	if err == errNeedInput {
		f.br = cp
		f.br.strip()
	}
	return err
}

// inflate decodes the raw Deflate stream in under lim after hist, the
// preset-dictionary history matches may reach (not counted against
// MaxOutputBytes). It is the core without the entry points' recover().
func inflate(in, hist []byte, lim DecodeLimits) ([]byte, error) {
	if lim.MaxOutputBytes > 0 {
		lim.MaxOutputBytes += len(hist)
	}
	size := len(hist) + 3*len(in) + 64
	if lim.MaxOutputBytes > 0 {
		size = min(size, lim.MaxOutputBytes)
	}
	f := inflater{
		br:      bitReader{in: in},
		eof:     true,
		out:     make([]byte, size),
		w:       len(hist),
		yieldAt: math.MaxInt,
		lim:     lim,
		tabs:    tablesPool.Get().(*inflateTables),
	}
	defer tablesPool.Put(f.tabs)
	copy(f.out, hist)
	if err := f.run(); err != nil {
		return nil, err
	}
	return f.out[len(hist):f.w], nil
}
