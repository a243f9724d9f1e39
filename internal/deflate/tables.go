// Package deflate implements the subset of RFC 1951/1950 the paper's
// hardware emits — fixed-table Huffman blocks inside a ZLib container —
// plus a full table-driven inflater (stored, fixed and dynamic blocks),
// held in the tests to an independent bit-serial oracle so streams are
// verified without trusting the encoder, and a dynamic-Huffman encoder
// as the compression-ratio extension the paper mentions.
package deflate

import (
	"lzssfpga/internal/bitio"
)

// Symbol-space constants from RFC 1951.
const (
	endOfBlock   = 256
	maxLitLen    = 285 // highest length/literal symbol actually used
	numLitLenSym = 288 // fixed tree defines 288 (286/287 unused)
	numDistSym   = 30
	maxCodeLen   = 15
)

// lengthCode describes how a copy length maps onto a Deflate symbol.
type lengthCode struct {
	sym   uint16 // literal/length symbol (257..285)
	extra uint8  // number of extra bits
	base  uint16 // smallest length encoded by sym
}

// distCode describes how a copy distance maps onto a distance symbol.
type distCode struct {
	sym   uint8
	extra uint8
	base  uint16
}

var (
	// lengthBase[i] is the smallest length of symbol 257+i;
	// lengthExtra[i] its extra-bit count (RFC 1951 §3.2.5).
	lengthBase = [29]uint16{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lengthExtra = [29]uint8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	distBase = [30]uint16{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
	}
	distExtra = [30]uint8{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}

	// lengthToCode[len-3] precomputes the symbol for every length 3..258.
	lengthToCode [256]lengthCode
	// distToCode4 maps distances 1..256 directly; larger distances go
	// through distToCodeHi on (d-1)>>7.
	distToCodeLo [256]distCode
	distToCodeHi [256]distCode
)

func init() {
	for i := len(lengthBase) - 1; i >= 0; i-- {
		base := int(lengthBase[i])
		top := 258
		if i+1 < len(lengthBase) {
			top = int(lengthBase[i+1]) - 1
		}
		if i == len(lengthBase)-1 { // symbol 285 encodes only 258
			top = 258
		}
		for l := base; l <= top && l <= 258; l++ {
			lengthToCode[l-3] = lengthCode{sym: uint16(257 + i), extra: lengthExtra[i], base: lengthBase[i]}
		}
	}
	// Length 258 must use symbol 285 (zero extra bits), not 284.
	lengthToCode[258-3] = lengthCode{sym: 285, extra: 0, base: 258}

	codeFor := func(d int) distCode {
		for i := len(distBase) - 1; i >= 0; i-- {
			if d >= int(distBase[i]) {
				return distCode{sym: uint8(i), extra: distExtra[i], base: distBase[i]}
			}
		}
		return distCode{}
	}
	for d := 1; d <= 256; d++ {
		distToCodeLo[d-1] = codeFor(d)
	}
	for i := 0; i < 256; i++ {
		d := i<<7 + 1
		if d > 32768 {
			d = 32768
		}
		distToCodeHi[i] = codeFor(d)
	}
}

// lenCodeFor returns the symbol descriptor for a copy length in [3,258].
func lenCodeFor(length int) lengthCode { return lengthToCode[length-3] }

// distCodeFor returns the symbol descriptor for a distance in [1,32768].
func distCodeFor(d int) distCode {
	if d <= 256 {
		return distToCodeLo[d-1]
	}
	return distToCodeHi[(d-1)>>7]
}

// Fixed-table singletons: the RFC 1951 §3.2.6 tables are immutable, so
// every encoder shares one copy instead of rebuilding them per block
// (CommandBits used to rebuild the length table per command). The *Rev
// variants hold codes already bit-reversed into Deflate storage order,
// writable with plain WriteBits.
var (
	fixedLitLens      = fixedLitLenLengths()
	fixedDistLens     = fixedDistLengths()
	fixedLitCodes     = canonicalCodes(fixedLitLens)
	fixedDistCodes    = canonicalCodes(fixedDistLens)
	fixedLitCodesRev  = reverseCodes(fixedLitCodes, fixedLitLens)
	fixedDistCodesRev = reverseCodes(fixedDistCodes, fixedDistLens)
)

// reverseCodes returns codes with each entry bit-reversed within its
// code length — the storage order Deflate writes Huffman codes in.
func reverseCodes(codes []uint16, lens []uint8) []uint16 {
	out := make([]uint16, len(codes))
	copy(out, codes)
	reverseCodesInPlace(out, lens)
	return out
}

// reverseCodesInPlace bit-reverses each code within its length, in the
// caller's slice — the allocation-free form the reusable dynamic plan
// uses.
func reverseCodesInPlace(codes []uint16, lens []uint8) {
	for i, c := range codes {
		codes[i] = uint16(bitio.Reverse(uint32(c), uint(lens[i])))
	}
}

// fixedLitLenLengths returns the fixed literal/length code lengths
// (RFC 1951 §3.2.6): 0-143→8, 144-255→9, 256-279→7, 280-287→8.
func fixedLitLenLengths() []uint8 {
	l := make([]uint8, numLitLenSym)
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	return l
}

// fixedDistLengths returns the fixed distance code lengths (all 5).
func fixedDistLengths() []uint8 {
	l := make([]uint8, 32)
	for i := range l {
		l[i] = 5
	}
	return l
}

// canonicalCodes assigns canonical Huffman codes to the given lengths
// (RFC 1951 §3.2.2). codes[i] is the code for symbol i, stored in its
// natural (MSB-first) form; write it with WriteBitsRev.
func canonicalCodes(lengths []uint8) []uint16 {
	return canonicalCodesInto(nil, lengths)
}

// canonicalCodesInto is canonicalCodes writing into dst's backing array
// when it is large enough.
func canonicalCodesInto(dst []uint16, lengths []uint8) []uint16 {
	var blCount [maxCodeLen + 1]int
	for _, l := range lengths {
		blCount[l]++
	}
	blCount[0] = 0
	var nextCode [maxCodeLen + 1]uint16
	code := uint16(0)
	for b := 1; b <= maxCodeLen; b++ {
		code = (code + uint16(blCount[b-1])) << 1
		nextCode[b] = code
	}
	if cap(dst) < len(lengths) {
		dst = make([]uint16, len(lengths))
	}
	dst = dst[:len(lengths)]
	for i, l := range lengths {
		if l != 0 {
			dst[i] = nextCode[l]
			nextCode[l]++
		} else {
			dst[i] = 0
		}
	}
	return dst
}
