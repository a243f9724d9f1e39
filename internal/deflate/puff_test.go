package deflate

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"lzssfpga/internal/bitio"
)

// The reference decoder: a bit-serial canonical Huffman inflater in the
// style of zlib's puff (decode via per-length counts, one bit at a
// time). It shares nothing with the table-driven core except the RFC
// 1951 constant tables, so the tests hold the core, and through it the
// encoder, to an independent oracle.

// huffDec decodes canonical Huffman codes bit by bit.
type huffDec struct {
	counts [maxCodeLen + 1]int
	syms   []int
	// complete reports whether the code fills its whole code space
	// (RFC 1951 permits an incomplete code only as the single one-bit
	// distance code).
	complete bool
}

func newHuffDec(lengths []uint8) (*huffDec, error) {
	h := &huffDec{}
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, l)
		}
		h.counts[l]++
	}
	if h.counts[0] == len(lengths) {
		return nil, fmt.Errorf("%w: empty code", ErrCorrupt)
	}
	// Over-subscription check.
	left := 1
	for l := 1; l <= maxCodeLen; l++ {
		left <<= 1
		left -= h.counts[l]
		if left < 0 {
			return nil, fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
		}
	}
	h.complete = left == 0
	var offs [maxCodeLen + 1]int
	for l := 1; l < maxCodeLen; l++ {
		offs[l+1] = offs[l] + h.counts[l]
	}
	h.syms = make([]int, len(lengths))
	for sym, l := range lengths {
		if l != 0 {
			h.syms[offs[l]] = sym
			offs[l]++
		}
	}
	return h, nil
}

// singleOneBit reports the one incomplete shape stdlib accepts: a
// single code of length 1.
func (h *huffDec) singleOneBit() bool {
	n := 0
	for l := 1; l <= maxCodeLen; l++ {
		n += h.counts[l]
	}
	return n == 1 && h.counts[1] == 1
}

func (h *huffDec) decode(br *bitio.Reader) (int, error) {
	code, first, index := 0, 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		b, err := br.ReadBits(1)
		if err != nil {
			return 0, err
		}
		code |= int(b)
		count := h.counts[l]
		if code-first < count {
			return h.syms[index+code-first], nil
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, fmt.Errorf("%w: invalid Huffman code", ErrCorrupt)
}

// puffCorners records the RFC 1951 corner cases a stream's dynamic
// headers use, for FuzzInflateDifferential to name where stdlib
// compress/flate disagrees with the puff rules.
type puffCorners struct {
	// incomplete: some code is incomplete and is not a single one-bit
	// code (stdlib rejects these; puff accepts them).
	incomplete bool
	// emptyDist: a dynamic header whose distance code lengths are all
	// zero (stdlib accepts it while no distance is decoded; puff
	// rejects the empty code).
	emptyDist bool
}

type puff struct {
	br      *bitio.Reader
	lim     DecodeLimits
	corners puffCorners
}

var puffFixedLit, puffFixedDist = mustHuffDec(fixedLitLenLengths()), mustHuffDec(fixedDistLengths())

func mustHuffDec(lengths []uint8) *huffDec {
	h, err := newHuffDec(lengths)
	if err != nil {
		panic(err)
	}
	return h
}

// puffInflate decodes a complete raw Deflate stream after hist with the
// reference decoder, under lim (MaxOutputBytes counts hist, as the
// bit-serial one-shot path did).
func puffInflate(data, hist []byte, lim DecodeLimits) ([]byte, puffCorners, error) {
	p := &puff{br: bitio.NewReader(bytes.NewReader(data)), lim: lim}
	out, err := p.blocks(append([]byte(nil), hist...))
	if err != nil {
		return nil, p.corners, puffNormEOF(err)
	}
	return out[len(hist):], p.corners, nil
}

// puffNormEOF types reader-level truncations as ErrCorrupt plus
// io.ErrUnexpectedEOF.
func puffNormEOF(err error) error {
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	if errors.Is(err, bitio.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: truncated stream: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	return err
}

func (p *puff) blocks(out []byte) ([]byte, error) {
	for blocks := 0; ; blocks++ {
		if p.lim.MaxBlocks > 0 && blocks >= p.lim.MaxBlocks {
			return nil, fmt.Errorf("%w: %w: more than %d blocks", ErrCorrupt, ErrLimit, p.lim.MaxBlocks)
		}
		final, err := p.br.ReadBool()
		if err != nil {
			return nil, err
		}
		btype, err := p.br.ReadBits(2)
		if err != nil {
			return nil, err
		}
		switch btype {
		case 0:
			out, err = p.stored(out)
		case 1:
			out, err = p.codes(out, puffFixedLit, puffFixedDist)
		case 2:
			var lit, dist *huffDec
			lit, dist, err = p.dynamicHeader()
			if err == nil {
				out, err = p.codes(out, lit, dist)
			}
		default:
			return nil, fmt.Errorf("%w: reserved block type", ErrCorrupt)
		}
		if err != nil {
			return nil, err
		}
		if final {
			return out, nil
		}
	}
}

func (p *puff) stored(out []byte) ([]byte, error) {
	p.br.AlignByte()
	n, err := p.br.ReadBits(16)
	if err != nil {
		return nil, err
	}
	nlen, err := p.br.ReadBits(16)
	if err != nil {
		return nil, err
	}
	if n != ^nlen&0xFFFF {
		return nil, fmt.Errorf("%w: stored length check", ErrCorrupt)
	}
	if p.lim.MaxOutputBytes > 0 && len(out)+int(n) > p.lim.MaxOutputBytes {
		return nil, errOutputLimit(p.lim)
	}
	chunk := make([]byte, n)
	if err := p.br.ReadBytes(chunk); err != nil {
		return nil, err
	}
	return append(out, chunk...), nil
}

func (p *puff) codes(out []byte, lit, dist *huffDec) ([]byte, error) {
	br, lim := p.br, p.lim
	for {
		sym, err := lit.decode(br)
		if err != nil {
			return nil, err
		}
		switch {
		case sym < 256:
			if lim.MaxOutputBytes > 0 && len(out) >= lim.MaxOutputBytes {
				return nil, errOutputLimit(lim)
			}
			out = append(out, byte(sym))
		case sym == endOfBlock:
			return out, nil
		case sym <= maxLitLen:
			i := sym - 257
			length := int(lengthBase[i])
			if lengthExtra[i] > 0 {
				e, err := br.ReadBits(uint(lengthExtra[i]))
				if err != nil {
					return nil, err
				}
				length += int(e)
			}
			dsym, err := dist.decode(br)
			if err != nil {
				return nil, err
			}
			if dsym >= numDistSym {
				return nil, fmt.Errorf("%w: distance symbol %d", ErrCorrupt, dsym)
			}
			d := int(distBase[dsym])
			if distExtra[dsym] > 0 {
				e, err := br.ReadBits(uint(distExtra[dsym]))
				if err != nil {
					return nil, err
				}
				d += int(e)
			}
			if d > len(out) {
				return nil, fmt.Errorf("%w: distance %d exceeds output %d", ErrCorrupt, d, len(out))
			}
			if lim.MaxOutputBytes > 0 && len(out)+length > lim.MaxOutputBytes {
				return nil, errOutputLimit(lim)
			}
			src := len(out) - d
			for j := 0; j < length; j++ {
				out = append(out, out[src+j])
			}
		default:
			return nil, fmt.Errorf("%w: literal/length symbol %d", ErrCorrupt, sym)
		}
	}
}

// noteCode records whether a built code is one stdlib refuses.
func (p *puff) noteCode(h *huffDec) {
	if !h.complete && !h.singleOneBit() {
		p.corners.incomplete = true
	}
}

func (p *puff) dynamicHeader() (lit, dist *huffDec, err error) {
	br := p.br
	hlit, err := br.ReadBits(5)
	if err != nil {
		return nil, nil, err
	}
	hdist, err := br.ReadBits(5)
	if err != nil {
		return nil, nil, err
	}
	hclen, err := br.ReadBits(4)
	if err != nil {
		return nil, nil, err
	}
	nLit, nDist, nCl := int(hlit)+257, int(hdist)+1, int(hclen)+4
	if nLit > 286 || nDist > numDistSym {
		return nil, nil, fmt.Errorf("%w: dynamic header counts", ErrCorrupt)
	}
	clLens := make([]uint8, 19)
	for i := 0; i < nCl; i++ {
		v, err := br.ReadBits(3)
		if err != nil {
			return nil, nil, err
		}
		clLens[codeLengthOrder[i]] = uint8(v)
	}
	clDec, err := newHuffDec(clLens)
	if err != nil {
		return nil, nil, err
	}
	p.noteCode(clDec)
	lens := make([]uint8, nLit+nDist)
	for i := 0; i < len(lens); {
		sym, err := clDec.decode(br)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case sym < 16:
			lens[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return nil, nil, fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			n, err := br.ReadBits(2)
			if err != nil {
				return nil, nil, err
			}
			prev := lens[i-1]
			for j := 0; j < int(n)+3; j++ {
				if i >= len(lens) {
					return nil, nil, fmt.Errorf("%w: repeat overflow", ErrCorrupt)
				}
				lens[i] = prev
				i++
			}
		case sym == 17, sym == 18:
			bitsN, base := uint(3), 3
			if sym == 18 {
				bitsN, base = 7, 11
			}
			n, err := br.ReadBits(bitsN)
			if err != nil {
				return nil, nil, err
			}
			for j := 0; j < int(n)+base; j++ {
				if i >= len(lens) {
					return nil, nil, fmt.Errorf("%w: zero-repeat overflow", ErrCorrupt)
				}
				lens[i] = 0
				i++
			}
		default:
			return nil, nil, fmt.Errorf("%w: code length symbol %d", ErrCorrupt, sym)
		}
	}
	lit, err = newHuffDec(lens[:nLit])
	if err != nil {
		return nil, nil, err
	}
	p.noteCode(lit)
	if bytes.Count(lens[nLit:], []byte{0}) == nDist {
		p.corners.emptyDist = true
	}
	dist, err = newHuffDec(lens[nLit:])
	if err != nil {
		return nil, nil, err
	}
	p.noteCode(dist)
	return lit, dist, nil
}
