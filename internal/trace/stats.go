package trace

import (
	"fmt"
	"sort"
)

// Stats summarises the locality characteristics of a trace.
type Stats struct {
	// Accesses is the number of memory operations.
	Accesses int
	// Writes is the number of stores.
	Writes int
	// Blocks is the number of distinct cache blocks touched (for the
	// block size passed to Summarize).
	Blocks int
	// FootprintBytes is Blocks multiplied by the block size.
	FootprintBytes uint64
	// MinAddr and MaxAddr bound the addresses touched.
	MinAddr, MaxAddr uint64
	// TopStrides lists the most frequent successive address deltas,
	// most frequent first.
	TopStrides []StrideCount
	// Instructions is the instruction count spanned by the trace.
	Instructions uint64
}

// StrideCount records how often a particular successive address delta
// occurred.
type StrideCount struct {
	Stride int64
	Count  int
}

// Summarize computes Stats over t for the given cache block size.
func Summarize(t *Trace, blockSize uint64) Stats {
	if blockSize == 0 {
		blockSize = 64
	}
	s := Stats{Accesses: len(t.Accesses)}
	if len(t.Accesses) == 0 {
		return s
	}
	blocks := make(map[uint64]struct{})
	strideAt := make(map[int64]int) // stride -> its index in s.TopStrides
	s.MinAddr = t.Accesses[0].Addr
	prev := t.Accesses[0].Addr
	for i, a := range t.Accesses {
		if a.Write {
			s.Writes++
		}
		blocks[a.Addr/blockSize] = struct{}{}
		if a.Addr < s.MinAddr {
			s.MinAddr = a.Addr
		}
		if a.Addr > s.MaxAddr {
			s.MaxAddr = a.Addr
		}
		if i > 0 {
			d := int64(a.Addr - prev)
			if j, seen := strideAt[d]; seen {
				s.TopStrides[j].Count++
			} else {
				strideAt[d] = len(s.TopStrides)
				s.TopStrides = append(s.TopStrides, StrideCount{Stride: d, Count: 1})
			}
		}
		prev = a.Addr
	}
	s.Blocks = len(blocks)
	s.FootprintBytes = uint64(len(blocks)) * blockSize
	s.Instructions = t.Accesses[len(t.Accesses)-1].IC - t.Accesses[0].IC
	sort.Slice(s.TopStrides, func(i, j int) bool {
		if s.TopStrides[i].Count != s.TopStrides[j].Count {
			return s.TopStrides[i].Count > s.TopStrides[j].Count
		}
		return s.TopStrides[i].Stride < s.TopStrides[j].Stride
	})
	if len(s.TopStrides) > 8 {
		s.TopStrides = s.TopStrides[:8]
	}
	return s
}

// String renders a one-line human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d writes=%d blocks=%d footprint=%dB span=[%#x,%#x] instrs=%d",
		s.Accesses, s.Writes, s.Blocks, s.FootprintBytes, s.MinAddr, s.MaxAddr, s.Instructions)
}
