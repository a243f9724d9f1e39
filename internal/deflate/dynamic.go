package deflate

import (
	"bytes"
	"fmt"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/token"
)

// Dynamic-Huffman block encoder (RFC 1951 §3.2.7). This is the
// compression-ratio extension the paper points at: per-block code
// tables tailored to the symbol statistics, at the price of a
// two-pass, stall-prone encoder that the hardware deliberately avoids.

// histogram tallies the literal/length and distance symbol frequencies
// of a command stream.
func histogram(cmds []token.Command) (lit [numLitLenSym]int64, dist [numDistSym]int64) {
	for _, c := range cmds {
		if c.K == token.Literal {
			lit[c.Lit]++
			continue
		}
		lit[lenCodeFor(c.Length).sym]++
		dist[distCodeFor(c.Distance).sym]++
	}
	lit[endOfBlock]++
	return lit, dist
}

// clSymbol is one step of the code-length-code run-length encoding.
type clSymbol struct {
	sym   int // 0..18
	extra uint32
	nbits uint
}

// rleCodeLengths compresses a code-length vector with symbols 16/17/18
// (copy previous 3-6, zeros 3-10, zeros 11-138).
func rleCodeLengths(lens []uint8) []clSymbol {
	return rleCodeLengthsInto(nil, lens)
}

// rleCodeLengthsInto is rleCodeLengths appending into out (pass a
// truncated scratch slice to reuse its backing array).
func rleCodeLengthsInto(out []clSymbol, lens []uint8) []clSymbol {
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		switch {
		case l == 0 && run >= 3:
			for run >= 3 {
				n := run
				if n > 138 {
					n = 138
				}
				if n <= 10 {
					out = append(out, clSymbol{sym: 17, extra: uint32(n - 3), nbits: 3})
				} else {
					out = append(out, clSymbol{sym: 18, extra: uint32(n - 11), nbits: 7})
				}
				run -= n
				i += n
			}
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: 0})
				i++
			}
		case l != 0 && run >= 4:
			out = append(out, clSymbol{sym: int(l)})
			i++
			run--
			for run >= 3 {
				n := run
				if n > 6 {
					n = 6
				}
				out = append(out, clSymbol{sym: 16, extra: uint32(n - 3), nbits: 2})
				run -= n
				i += n
			}
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: int(l)})
				i++
			}
		default:
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: int(l)})
				i++
			}
		}
	}
	return out
}

// dynamicPlan holds everything needed to emit one dynamic block. The
// slices (and the trailing scratch fields) are reused across plan()
// calls, so a long-lived plan — e.g. one held by a pooled parallel
// worker — plans block after block without allocating.
type dynamicPlan struct {
	litLens  []uint8
	distLens []uint8
	litCodes []uint16
	dstCodes []uint16
	clLens   []uint8
	clCodes  []uint16
	clSyms   []clSymbol
	nLit     int // HLIT + 257
	nDist    int // HDIST + 1
	nCl      int // HCLEN + 4

	// scratch, valid only during plan()
	all []uint8 // concatenated lit+dist lengths for the CL pass
	cb  codeBuilder
}

// planDynamic computes the code tables and header layout for cmds.
func planDynamic(cmds []token.Command) *dynamicPlan {
	p := &dynamicPlan{}
	p.plan(cmds)
	return p
}

// resizeU8 returns a zeroed slice of length n, reusing s's backing
// array when large enough (codeBuilder.build requires zeroed lengths).
func resizeU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// plan recomputes the code tables and header layout for cmds, reusing
// the plan's buffers.
func (p *dynamicPlan) plan(cmds []token.Command) {
	litFreq, distFreq := histogram(cmds)
	p.litLens = resizeU8(p.litLens, numLitLenSym)
	p.cb.build(litFreq[:], p.litLens, maxCodeLen)
	p.distLens = resizeU8(p.distLens, numDistSym)
	p.cb.build(distFreq[:], p.distLens, maxCodeLen)
	// The distance code may be empty (no matches): RFC 1951 allows one
	// zero-length entry, but a single 1-bit dummy is what zlib emits
	// and what every decoder accepts.
	if maxDepth(p.distLens) == 0 {
		p.distLens[0] = 1
	}
	// Trim trailing zeros down to the required minimums.
	p.nLit = numLitLenSym - 2 // symbols 286/287 never occur
	for p.nLit > 257 && p.litLens[p.nLit-1] == 0 {
		p.nLit--
	}
	p.nDist = numDistSym
	for p.nDist > 1 && p.distLens[p.nDist-1] == 0 {
		p.nDist--
	}
	// RLE the concatenated length vector and build the CL code over it.
	p.all = append(p.all[:0], p.litLens[:p.nLit]...)
	p.all = append(p.all, p.distLens[:p.nDist]...)
	p.clSyms = rleCodeLengthsInto(p.clSyms[:0], p.all)
	var clFreq [19]int64
	for _, s := range p.clSyms {
		clFreq[s.sym]++
	}
	p.clLens = resizeU8(p.clLens, 19)
	p.cb.build(clFreq[:], p.clLens, 7)
	// HCLEN: trim the permuted CL length list.
	p.nCl = 19
	for p.nCl > 4 && p.clLens[codeLengthOrder[p.nCl-1]] == 0 {
		p.nCl--
	}
	// Codes are stored pre-reversed into Deflate storage order; emit
	// writes them with plain WriteBits.
	p.litCodes = canonicalCodesInto(p.litCodes, p.litLens)
	reverseCodesInPlace(p.litCodes, p.litLens)
	p.dstCodes = canonicalCodesInto(p.dstCodes, p.distLens)
	reverseCodesInPlace(p.dstCodes, p.distLens)
	p.clCodes = canonicalCodesInto(p.clCodes, p.clLens)
	reverseCodesInPlace(p.clCodes, p.clLens)
}

// headerBits returns the encoded size of the dynamic header.
func (p *dynamicPlan) headerBits() int {
	n := 5 + 5 + 4 + 3*p.nCl
	for _, s := range p.clSyms {
		n += int(p.clLens[s.sym]) + int(s.nbits)
	}
	return n
}

// bodyBits returns the encoded size of the symbols (incl. end-of-block).
func (p *dynamicPlan) bodyBits(cmds []token.Command) int {
	n := int(p.litLens[endOfBlock])
	for _, c := range cmds {
		if c.K == token.Literal {
			n += int(p.litLens[c.Lit])
			continue
		}
		lc := lenCodeFor(c.Length)
		dc := distCodeFor(c.Distance)
		n += int(p.litLens[lc.sym]) + int(lc.extra) + int(p.distLens[dc.sym]) + int(dc.extra)
	}
	return n
}

// emit writes the complete dynamic block (header + symbols + EOB).
func (p *dynamicPlan) emit(bw *bitio.Writer, cmds []token.Command, final bool) error {
	bw.WriteBool(final)
	bw.WriteBits(0b10, 2)
	bw.WriteBits(uint32(p.nLit-257), 5)
	bw.WriteBits(uint32(p.nDist-1), 5)
	bw.WriteBits(uint32(p.nCl-4), 4)
	for i := 0; i < p.nCl; i++ {
		bw.WriteBits(uint32(p.clLens[codeLengthOrder[i]]), 3)
	}
	for _, s := range p.clSyms {
		bw.WriteBits(uint32(p.clCodes[s.sym]), uint(p.clLens[s.sym]))
		if s.nbits > 0 {
			bw.WriteBits(s.extra, s.nbits)
		}
	}
	for _, c := range cmds {
		switch c.K {
		case token.Literal:
			bw.WriteBits(uint32(p.litCodes[c.Lit]), uint(p.litLens[c.Lit]))
		case token.Match:
			if err := c.Validate(); err != nil {
				return err
			}
			lc := lenCodeFor(c.Length)
			bw.WriteBits(uint32(p.litCodes[lc.sym]), uint(p.litLens[lc.sym]))
			if lc.extra > 0 {
				bw.WriteBits(uint32(c.Length)-uint32(lc.base), uint(lc.extra))
			}
			dc := distCodeFor(c.Distance)
			bw.WriteBits(uint32(p.dstCodes[dc.sym]), uint(p.distLens[dc.sym]))
			if dc.extra > 0 {
				bw.WriteBits(uint32(c.Distance)-uint32(dc.base), uint(dc.extra))
			}
		default:
			return fmt.Errorf("deflate: unknown command kind %d", c.K)
		}
	}
	bw.WriteBits(uint32(p.litCodes[endOfBlock]), uint(p.litLens[endOfBlock]))
	return bw.Err()
}

// blockBits plans cmds into p and returns the size in bits of the
// cheaper Huffman encoding of cmds as one block — end-of-block symbol
// included, 3-bit block header excluded — and whether that encoding is
// the dynamic one (a tie goes to fixed, which carries no code tables).
func blockBits(p *dynamicPlan, cmds []token.Command) (bits int, dynamic bool) {
	p.plan(cmds)
	dyn := p.headerBits() + p.bodyBits(cmds)
	fix := 7 // end-of-block
	for _, c := range cmds {
		fix += CommandBits(c)
	}
	if dyn < fix {
		return dyn, true
	}
	return fix, false
}

// writeBlock writes cmds as one block in the cheaper of the dynamic and
// fixed Huffman encodings, planning into p: the per-block choice of the
// parallel segments, the streaming Writer and SplitDeflate.
func writeBlock(bw *bitio.Writer, p *dynamicPlan, cmds []token.Command, final bool) error {
	if _, dynamic := blockBits(p, cmds); dynamic {
		return p.emit(bw, cmds, final)
	}
	return writeFixed(bw, cmds, final)
}

// DynamicDeflate encodes cmds as one final dynamic-Huffman block.
func DynamicDeflate(cmds []token.Command) ([]byte, error) {
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	if err := planDynamic(cmds).emit(bw, cmds, true); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BestDeflate picks the cheapest representation of the block among
// stored, fixed-Huffman and dynamic-Huffman — zlib's per-block choice.
// src must be the bytes cmds expand to (needed for the stored option).
func BestDeflate(cmds []token.Command, src []byte) ([]byte, error) {
	p := new(dynamicPlan)
	bits, dynamic := blockBits(p, cmds)
	// Stored: 5 bytes of header per 65535-byte chunk, byte-aligned.
	storedBits := 8 * (len(src) + 5*(len(src)/65535+1))
	switch {
	case storedBits < 3+bits:
		return StoredDeflate(src)
	case !dynamic:
		return FixedDeflate(cmds)
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	if err := p.emit(bw, cmds, true); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ZlibCompressBest is ZlibCompress with per-block format selection.
func ZlibCompressBest(cmds []token.Command, src []byte, window int) ([]byte, error) {
	body, err := BestDeflate(cmds, src)
	if err != nil {
		return nil, err
	}
	return ZlibWrap(body, src, window)
}
