package deflate

import (
	"encoding/binary"
	"fmt"

	"lzssfpga/internal/checksum"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// GZip container (RFC 1952) around the same Deflate bodies — the format
// the related-work "gzip compression core" [12] produces. The hardware
// only needs a different header/trailer wrapper around the identical
// LZSS + Huffman datapath.

const (
	gzipID1 = 0x1F
	gzipID2 = 0x8B
	gzipCM  = 8 // deflate
	// FNAME is the only optional field we emit or parse.
	gzipFNAME = 0x08
	// OS code 255 = unknown (we are a hardware stream, not a filesystem).
	gzipOSUnknown = 255
)

// GzipWrap builds a complete RFC 1952 stream around a raw Deflate body.
// name, if non-empty, is stored as the original file name (Latin-1,
// NUL-terminated). src is the original data (for CRC32 and ISIZE).
func GzipWrap(deflateBody, src []byte, name string) ([]byte, error) {
	for i := 0; i < len(name); i++ {
		if name[i] == 0 {
			return nil, fmt.Errorf("deflate: gzip name contains NUL")
		}
	}
	out := make([]byte, 0, len(deflateBody)+len(name)+20)
	flg := byte(0)
	if name != "" {
		flg |= gzipFNAME
	}
	out = append(out, gzipID1, gzipID2, gzipCM, flg,
		0, 0, 0, 0, // MTIME: none (deterministic output)
		0,             // XFL
		gzipOSUnknown) // OS
	if name != "" {
		out = append(out, name...)
		out = append(out, 0)
	}
	out = append(out, deflateBody...)
	var tr [8]byte
	binary.LittleEndian.PutUint32(tr[0:], checksum.CRC32(src))
	binary.LittleEndian.PutUint32(tr[4:], uint32(len(src)))
	return append(out, tr[:]...), nil
}

// GzipCompress is the end-to-end gzip path: LZSS with parameters p,
// best-of block selection, RFC 1952 container.
func GzipCompress(data []byte, p lzss.Params, name string) ([]byte, error) {
	cmds, _, err := lzss.Compress(data, p)
	if err != nil {
		return nil, err
	}
	body, err := BestDeflate(cmds, data)
	if err != nil {
		return nil, err
	}
	return GzipWrap(body, data, name)
}

// GzipDecompress parses an RFC 1952 stream, inflates the body and
// verifies CRC32 and ISIZE. It returns the data and the stored name
// (empty if none).
func GzipDecompress(data []byte) ([]byte, string, error) {
	body, name, err := gzipBody(data)
	if err != nil {
		return nil, "", err
	}
	out, err := inflateChecked(body, nil, DefaultDecodeLimits())
	if err != nil {
		return nil, "", err
	}
	tr := data[len(data)-8:]
	if got, want := checksum.CRC32(out), binary.LittleEndian.Uint32(tr[0:]); got != want {
		return nil, "", fmt.Errorf("%w: gzip crc32 %08x != %08x", ErrCorrupt, got, want)
	}
	if got, want := uint32(len(out)), binary.LittleEndian.Uint32(tr[4:]); got != want {
		return nil, "", fmt.Errorf("%w: gzip isize %d != %d", ErrCorrupt, got, want)
	}
	return out, name, nil
}

// gzipBody parses an RFC 1952 header and returns the Deflate body
// (between the header and the 8-byte trailer) and the stored name.
func gzipBody(data []byte) ([]byte, string, error) {
	if len(data) < 18 {
		return nil, "", fmt.Errorf("%w: gzip stream too short", ErrCorrupt)
	}
	if data[0] != gzipID1 || data[1] != gzipID2 {
		return nil, "", fmt.Errorf("%w: gzip magic", ErrCorrupt)
	}
	if data[2] != gzipCM {
		return nil, "", fmt.Errorf("%w: gzip method %d", ErrCorrupt, data[2])
	}
	flg := data[3]
	pos := 10
	if flg&0x04 != 0 { // FEXTRA
		if pos+2 > len(data) {
			return nil, "", fmt.Errorf("%w: truncated FEXTRA", ErrCorrupt)
		}
		xlen := int(binary.LittleEndian.Uint16(data[pos:]))
		pos += 2 + xlen
	}
	name := ""
	if flg&gzipFNAME != 0 {
		end := pos
		for end < len(data) && data[end] != 0 {
			end++
		}
		if end >= len(data) {
			return nil, "", fmt.Errorf("%w: unterminated FNAME", ErrCorrupt)
		}
		name = string(data[pos:end])
		pos = end + 1
	}
	if flg&0x10 != 0 { // FCOMMENT
		for pos < len(data) && data[pos] != 0 {
			pos++
		}
		if pos >= len(data) {
			return nil, "", fmt.Errorf("%w: unterminated FCOMMENT", ErrCorrupt)
		}
		pos++
	}
	if flg&0x02 != 0 { // FHCRC
		pos += 2
	}
	if pos+8 > len(data) {
		return nil, "", fmt.Errorf("%w: gzip header overruns stream", ErrCorrupt)
	}
	return data[pos : len(data)-8], name, nil
}

// GzipCommands exposes the body's command stream (for the hardware
// decompressor model), after the full decode has verified the stream.
func GzipCommands(data []byte) ([]token.Command, error) {
	if _, _, err := GzipDecompress(data); err != nil {
		return nil, err
	}
	body, _, _ := gzipBody(data)
	return ParseCommands(body)
}
