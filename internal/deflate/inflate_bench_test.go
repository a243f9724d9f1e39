package deflate

import (
	"bytes"
	"compress/zlib"
	"io"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/workload"
)

// mixedCorpus interleaves 64 KiB chunks of wiki text, CAN frames and
// JSON records, the shape of the serving benchmark's corpus.
func mixedCorpus(n int, seed int64) []byte {
	const chunk = 64 << 10
	parts := [][]byte{
		workload.Wiki(n/3+chunk, seed),
		workload.CAN(n/3+chunk, seed+1),
		workload.JSONish(n/3+chunk, seed+2),
	}
	out := make([]byte, 0, n+chunk)
	for off := 0; len(out) < n; off += chunk {
		for _, p := range parts {
			out = append(out, p[off:off+chunk]...)
		}
	}
	return out[:n]
}

// BenchmarkZlibDecompress1MiB decodes 1 MiB of the mixed corpus
// compressed at the daemon's defaults (hardware-speed parameters,
// 256 KiB parallel segments) with the table-driven inflater, the
// streaming reader and stdlib compress/zlib, on the same stream.
func BenchmarkZlibDecompress1MiB(b *testing.B) {
	data := mixedCorpus(1<<20, 20120521)
	z, err := ParallelCompress(data, lzss.HWSpeedParams(), 256<<10, 0)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, dec func() ([]byte, error)) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := dec()
			if err != nil || len(out) != len(data) {
				b.Fatalf("decode: %d bytes, %v", len(out), err)
			}
		}
	}
	b.Run("own", func(b *testing.B) {
		run(b, func() ([]byte, error) { return ZlibDecompressLimited(z, DefaultDecodeLimits()) })
	})
	b.Run("stream", func(b *testing.B) {
		run(b, func() ([]byte, error) {
			zr, err := NewReader(bytes.NewReader(z))
			if err != nil {
				return nil, err
			}
			return io.ReadAll(zr)
		})
	})
	b.Run("stdlib", func(b *testing.B) {
		run(b, func() ([]byte, error) {
			zr, err := zlib.NewReader(bytes.NewReader(z))
			if err != nil {
				return nil, err
			}
			return io.ReadAll(zr)
		})
	})
}
