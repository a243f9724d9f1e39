package deflate

import (
	"bytes"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/token"
)

// Block splitting: per-block Huffman tables only pay off when the
// blocks' symbol statistics actually differ. SplitDeflate cuts the
// command stream into candidate blocks, greedily merges neighbours
// whenever one shared table is cheaper than two separate ones (header
// included), and emits each surviving block in its cheapest format.
// On homogeneous data it converges to a single block; on shifting data
// (text followed by binary followed by noise) it keeps the boundaries
// and beats any single-table encoding.

// splitCandidateCommands is the initial cut granularity.
const splitCandidateCommands = 8192

// segmentCost returns the encoded size in bits of cmds as one block,
// header included, taking the cheaper of fixed and dynamic (stored is
// left out: SplitDeflate has no raw bytes to store).
func segmentCost(p *dynamicPlan, cmds []token.Command) int {
	bits, _ := blockBits(p, cmds)
	return 3 + bits
}

// SplitDeflate encodes cmds as a sequence of statistically coherent
// blocks and returns the raw Deflate stream.
func SplitDeflate(cmds []token.Command) ([]byte, error) {
	if len(cmds) == 0 {
		return FixedDeflate(cmds)
	}
	// Initial candidate boundaries.
	var bounds []int
	for i := 0; i < len(cmds); i += splitCandidateCommands {
		bounds = append(bounds, i)
	}
	bounds = append(bounds, len(cmds))
	p := new(dynamicPlan)
	costs := make([]int, len(bounds)-1)
	for i := range costs {
		costs[i] = segmentCost(p, cmds[bounds[i]:bounds[i+1]])
	}
	// Greedy neighbour merging: accept any merge that does not lose.
	for {
		merged := false
		for i := 0; i+1 < len(costs); i++ {
			joint := segmentCost(p, cmds[bounds[i]:bounds[i+2]])
			if joint <= costs[i]+costs[i+1] {
				bounds = append(bounds[:i+1], bounds[i+2:]...)
				costs[i] = joint
				costs = append(costs[:i+1], costs[i+2:]...)
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	// Emit.
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	for i := 0; i+1 < len(bounds); i++ {
		final := i+2 == len(bounds)
		if err := writeBlock(bw, p, cmds[bounds[i]:bounds[i+1]], final); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ZlibCompressSplit wraps SplitDeflate in the zlib container.
func ZlibCompressSplit(cmds []token.Command, src []byte, window int) ([]byte, error) {
	body, err := SplitDeflate(cmds)
	if err != nil {
		return nil, err
	}
	return ZlibWrap(body, src, window)
}
