package lzss

import (
	"fmt"
	"slices"

	"lzssfpga/internal/token"
)

// StreamCompressor is the incremental form of Compress: bytes go in via
// Write, commands come out as soon as they are decided. It is a sliding
// byte buffer over one Matcher: each Write runs the greedy loop of
// Compress up to the position that still has a full lookahead buffered,
// and once the parse is three windows in, the processed bytes beyond
// one window of history are dropped and the chain tables rebased —
// ZLib's fill_window rotation, the software counterpart of the
// head-table rotation the paper's hardware optimizes.
//
// The parse is greedy at every chain level: the command stream and
// Stats over the concatenated input are identical to a whole-buffer
// Compress with Lazy cleared (the convention CompressTail states). No
// match decision is ever made on partial knowledge: a position is
// matched only once MaxMatch+MinMatch bytes of lookahead are buffered,
// or Flush or Close declares where the input ends.
type StreamCompressor struct {
	m      *Matcher
	buf    []byte
	pos    int             // next undecided index within buf
	miss   int             // match-skip state carried across Writes (compressGreedyRange)
	cmds   []token.Command // parse scratch; each drain returns an exact-size copy
	closed bool
}

// streamLookahead is how many bytes beyond the current position must be
// buffered before matching proceeds mid-stream: a maximal match plus
// one hash window.
const streamLookahead = token.MaxMatch + token.MinMatch + 1

// NewStreamCompressor validates p for streaming. Any chain-matcher
// preset is accepted and parsed greedily (Lazy is ignored, as in
// CompressTail); the suffix-array tier is block-oriented and rejected.
func NewStreamCompressor(p Params) (*StreamCompressor, error) {
	m, err := NewMatcher(nil, p, nil)
	if err != nil {
		return nil, err
	}
	if p.SA {
		return nil, fmt.Errorf("lzss: the suffix-array matcher is block-oriented; streaming requires a chain-matcher level")
	}
	return &StreamCompressor{m: m, buf: make([]byte, 0, 4*p.Window+streamLookahead)}, nil
}

// Stats returns the accumulated operation counters.
func (s *StreamCompressor) Stats() Stats { return *s.m.stats }

// FlushObs publishes the counters and histograms accumulated since the
// previous flush into the registry wired by SetObservability (no-op
// without one). The streaming zlib writer calls it on Flush and Close.
func (s *StreamCompressor) FlushObs() { s.m.FlushObs() }

// Write absorbs data and returns the commands that became decidable.
// The returned slice is freshly allocated and owned by the caller.
func (s *StreamCompressor) Write(data []byte) []token.Command {
	if s.closed {
		panic("lzss: Write after Close")
	}
	s.buf = append(s.buf, data...)
	s.m.stats.InputBytes += int64(len(data))
	return s.drain(len(s.buf) - streamLookahead + 1)
}

// Close declares end of input and returns the final commands.
func (s *StreamCompressor) Close() []token.Command {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.drain(len(s.buf))
}

// Flush processes every buffered byte immediately, without waiting for
// the usual lookahead. Matching quality at the flushed tail degrades
// slightly (candidates can not extend into data that has not arrived),
// exactly as ZLib's sync flush degrades it; the stream stays valid and
// subsequent Writes continue with full history.
func (s *StreamCompressor) Flush() []token.Command {
	if s.closed {
		return nil
	}
	return s.drain(len(s.buf))
}

// drain decides every position before stop, then slides the buffer.
// The slide is a whole multiple of the window (Matcher.rebase) and keeps
// at least one window of history behind the parse position.
func (s *StreamCompressor) drain(stop int) []token.Command {
	if stop <= s.pos {
		return nil
	}
	s.m.src = s.buf
	s.cmds, s.pos, s.miss = compressGreedyRange(s.m, s.buf, s.pos, stop, s.miss, s.cmds[:0])
	if w := s.m.p.Window; s.pos >= 3*w {
		keep := (s.pos - w) &^ (w - 1)
		s.m.rebase(keep)
		s.buf = append(s.buf[:0], s.buf[keep:]...)
		s.pos -= keep
	}
	return slices.Clone(s.cmds)
}
