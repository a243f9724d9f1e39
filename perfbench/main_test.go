package main

import (
	"bytes"
	"compress/zlib"
	"errors"
	"testing"
	"time"
)

// TestCorruptResponsesAreCaught builds every workload, runs a short
// window with each response corrupted by one bit and expects every op
// to fail, then a clean window with none failing.
func TestCorruptResponsesAreCaught(t *testing.T) {
	for name, build := range workloads {
		t.Run(name, func(t *testing.T) {
			b, err := build(7)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if b.checked == 0 || b.checkFailed != 0 {
				t.Fatalf("set-up checked %d, failed %d", b.checked, b.checkFailed)
			}
			if b.ratio <= 1 {
				t.Fatalf("compression ratio %v", b.ratio)
			}

			b.corrupt.Store(true)
			w := runWindow(b, 300*time.Millisecond, nil, false)
			if w.ops == 0 || w.failed != w.ops {
				t.Fatalf("corrupted window: %d ops, %d failed; want all failed", w.ops, w.failed)
			}
			b.corrupt.Store(false)
			w = runWindow(b, 300*time.Millisecond, nil, false)
			if w.ops == 0 || w.failed != 0 {
				t.Fatalf("clean window: %d ops, %d failed (%v)", w.ops, w.failed, w.firstErr)
			}
		})
	}
}

// TestVerifyZlib checks the stdlib oracle against plain and preset-
// dictionary streams and a stream with one flipped bit.
func TestVerifyZlib(t *testing.T) {
	want := bytes.Repeat([]byte("lzss over loopback "), 200)
	preset := []byte("lzss over loopback")
	for _, p := range [][]byte{nil, preset} {
		var buf bytes.Buffer
		zw, err := zlib.NewWriterLevelDict(&buf, zlib.DefaultCompression, p)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(want)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		z := buf.Bytes()
		if err := verifyZlib(z, p, want); err != nil {
			t.Fatalf("preset %q: %v", p, err)
		}
		if err := verifyZlib(z, p, want[1:]); !errors.Is(err, errMismatch) {
			t.Fatalf("preset %q: wrong payload gave %v, want a mismatch", p, err)
		}
		z[len(z)/2] ^= 0x10
		if err := verifyZlib(z, p, want); err == nil {
			t.Fatalf("preset %q: corrupted stream passed", p)
		}
	}
}
