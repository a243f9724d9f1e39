package deflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrLimit reports that a stream, while possibly well-formed, asked the
// decoder to exceed a configured resource bound. It is wrapped together
// with ErrCorrupt so existing errors.Is(err, ErrCorrupt) checks treat a
// limit hit as a rejected stream.
var ErrLimit = errors.New("deflate: decode limit exceeded")

// DecodeLimits bounds what a decoder will do for untrusted input.
// Deflate can expand 1 byte of input into ~1032 bytes of output, so a
// tiny hostile stream can demand gigabytes; these caps make the decoder
// safe to expose to data straight off the wire. The zero value of a
// field means "unlimited" for that axis.
type DecodeLimits struct {
	// MaxOutputBytes caps the decompressed size.
	MaxOutputBytes int
	// MaxBlocks caps the number of Deflate blocks (a stream of endless
	// empty non-final blocks never produces output but never ends).
	MaxBlocks int
}

// DefaultDecodeLimits is what the unqualified entry points (Inflate,
// ZlibDecompress) enforce: generous for any legitimate testbench corpus,
// finite for hostile input.
func DefaultDecodeLimits() DecodeLimits {
	return DecodeLimits{
		MaxOutputBytes: 1 << 30,
		MaxBlocks:      1 << 20,
	}
}

func errOutputLimit(lim DecodeLimits) error {
	return fmt.Errorf("%w: %w: output exceeds %d bytes", ErrCorrupt, ErrLimit, lim.MaxOutputBytes)
}

// InflateLimited decodes a complete raw Deflate stream under lim. It
// never panics on any input: structural violations and truncations
// return errors wrapping ErrCorrupt (truncations additionally match
// io.ErrUnexpectedEOF), and output allocation never exceeds
// lim.MaxOutputBytes. The bounds hold by construction in the decode
// core; the recover() here is only a backstop.
func InflateLimited(data []byte, lim DecodeLimits) ([]byte, error) {
	return inflateChecked(data, nil, lim)
}

// Inflate decodes a complete raw Deflate stream under
// DefaultDecodeLimits; use InflateLimited to choose the bounds.
func Inflate(data []byte) ([]byte, error) {
	return InflateLimited(data, DefaultDecodeLimits())
}

// ZlibDecompress parses an RFC 1950 container, inflates the body and
// verifies the Adler-32 trailer, under DefaultDecodeLimits; use
// ZlibDecompressLimited to choose the bounds.
func ZlibDecompress(data []byte) ([]byte, error) {
	return ZlibDecompressLimited(data, DefaultDecodeLimits())
}

// inflateChecked is inflate behind the exported decoders' backstop: a
// panic, ruled out by construction, would still surface as ErrCorrupt.
func inflateChecked(in, hist []byte, lim DecodeLimits) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: panic during decode: %v", ErrCorrupt, r)
		}
	}()
	return inflate(in, hist, lim)
}

// ZlibDecompressLimited parses an RFC 1950 container under lim,
// inflates the body, and verifies the Adler-32 trailer. Same no-panic
// and error-typing guarantees as InflateLimited.
func ZlibDecompressLimited(data []byte, lim DecodeLimits) ([]byte, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("%w: zlib stream too short: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if err := checkZlibHeader(data, false); err != nil {
		return nil, err
	}
	return inflateZlibBody(data[2:], nil, lim)
}

// ZlibDecompressDictLimited is ZlibDecompressDict under DecodeLimits:
// the hardened preset-dictionary decode path the serving layer exposes
// to data straight off the wire. The dictionary's trailing 32 KiB seed
// the inflater's history (match distances may reach into them), DICTID
// is verified against dict, and the output cap applies to the produced
// bytes — the seeded history does not consume limit budget. Same
// no-panic and error-typing guarantees as ZlibDecompressLimited.
func ZlibDecompressDictLimited(data, dict []byte, lim DecodeLimits) ([]byte, error) {
	if len(data) < 10 {
		return nil, fmt.Errorf("%w: dictionary zlib stream too short: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if err := checkZlibHeader(data, true); err != nil {
		return nil, err
	}
	dictID := binary.BigEndian.Uint32(data[2:])
	if got := AdlerChecksum(dict); got != dictID {
		return nil, fmt.Errorf("%w: DICTID %08x does not match dictionary %08x", ErrCorrupt, dictID, got)
	}
	hist := dict
	if len(hist) > 32768 {
		hist = hist[len(hist)-32768:]
	}
	return inflateZlibBody(data[6:], hist, lim)
}

// checkZlibHeader validates CMF/FLG: the Deflate method, FCHECK, and
// FDICT against whether the caller holds a preset dictionary.
func checkZlibHeader(data []byte, dict bool) error {
	cmf, flg := data[0], data[1]
	switch {
	case cmf&0x0F != 8:
		return fmt.Errorf("%w: compression method %d", ErrCorrupt, cmf&0x0F)
	case (uint32(cmf)*256+uint32(flg))%31 != 0:
		return fmt.Errorf("%w: zlib header check", ErrCorrupt)
	case dict && flg&0x20 == 0:
		return fmt.Errorf("%w: stream has no preset dictionary", ErrCorrupt)
	case !dict && flg&0x20 != 0:
		return fmt.Errorf("%w: preset dictionary unsupported", ErrCorrupt)
	}
	return nil
}

// inflateZlibBody inflates a zlib body (after hist) and verifies the
// Adler-32 trailer in its last four bytes.
func inflateZlibBody(rest, hist []byte, lim DecodeLimits) ([]byte, error) {
	out, err := inflateChecked(rest[:len(rest)-4], hist, lim)
	if err != nil {
		return nil, err
	}
	if got, want := AdlerChecksum(out), binary.BigEndian.Uint32(rest[len(rest)-4:]); got != want {
		return nil, fmt.Errorf("%w: adler32 %08x != %08x", ErrCorrupt, got, want)
	}
	return out, nil
}
