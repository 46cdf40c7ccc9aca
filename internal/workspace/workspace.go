// Package workspace provides the executor's memory arenas: bump allocators
// with stack (mark/release) discipline that let one recursive Multiply call
// run with amortized zero heap allocations after warm-up.
//
// Benson & Ballard's memory analysis (§4, Table 3) makes workspace the
// central currency of fast matrix multiplication: DFS traversals reuse one
// level's temporaries, while BFS/HYBRID traversals pay extra per-branch
// workspace to buy task parallelism. An Arena materializes exactly that
// trade-off in Go: every temporary a recursion step needs — the S_r and T_r
// operand combinations, the M_r products, the view headers and the small
// coefficient/pointer scratch of the addition plans — is carved from
// reusable chunked slabs instead of fresh garbage-collected allocations.
//
// An Arena is single-goroutine; concurrent schedulers hand each task its own
// Arena from a Pool, so the retained byte count of the Pool is the live
// measurement of the paper's DFS-vs-BFS memory trade-off.
package workspace

import (
	"unsafe"

	"fastmm/internal/mat"
)

// Chunk sizing. Chunks are never resized in place (outstanding pointers into
// a chunk must stay valid), so growth appends new chunks; all chunks are
// retained across Release/Reset for reuse.
// minFloatChunk is deliberately small: matrix-sized requests get an
// exact-size chunk of their own anyway, so the minimum only pads the small
// coefficient scratch — and BFS/HYBRID create one arena per concurrent
// task, so a large minimum would make workspace scale with task count
// rather than with the matrices.
const (
	minFloatChunk  = 1 << 12 // 4k float64 = 32 KiB
	headerChunkLen = 512
	ptrChunkLen    = 1024
	boolChunkLen   = 1024
	scaledChunkLen = 1024
)

// Arena is a bump allocator over retained chunks. It hands out float slabs,
// matrix headers, matrix views, and small pointer/bool scratch. Allocations
// are not zeroed (callers overwrite or explicitly Zero). An Arena must not
// be used from more than one goroutine at a time; use a Pool to share.
type Arena struct {
	floats  floatSlab
	hdrs    slab[mat.Dense]
	ptrs    slab[*mat.Dense]
	bools   slab[bool]
	scaleds slab[mat.Scaled]
}

// floatSlab needs variable-length allocation; the generic slab hands out
// fixed-count items.
type floatSlab struct {
	chunks  [][]float64
	ci, off int
}

// slab is a chunked bump allocator for fixed-size chunk elements.
type slab[T any] struct {
	chunks   [][]T
	ci, off  int
	chunkLen int
}

// Mark is a point in an Arena's allocation stack.
type Mark struct {
	fci, foff int
	hci, hoff int
	pci, poff int
	bci, boff int
	sci, soff int
}

// New returns an empty arena; chunks are allocated on demand and retained.
//
//fastmm:allow arena construction is the amortized cold path
func New() *Arena {
	return &Arena{
		hdrs:    slab[mat.Dense]{chunkLen: headerChunkLen},
		ptrs:    slab[*mat.Dense]{chunkLen: ptrChunkLen},
		bools:   slab[bool]{chunkLen: boolChunkLen},
		scaleds: slab[mat.Scaled]{chunkLen: scaledChunkLen},
	}
}

// Floats returns an uninitialized slab of n float64s valid until the
// enclosing Release or Reset.
func (a *Arena) Floats(n int) []float64 { return a.floats.alloc(n) }

// Ptrs returns an uninitialized matrix-pointer scratch slice of length n.
func (a *Arena) Ptrs(n int) []*mat.Dense { return a.ptrs.alloc(n) }

// Scaleds returns an uninitialized scaled-operand scratch slice of length n,
// the fused leaf's per-call operand lists (gemm.GemmFused sources and
// destinations).
func (a *Arena) Scaleds(n int) []mat.Scaled { return a.scaleds.alloc(n) }

// Bools returns a false-initialized bool scratch slice of length n.
func (a *Arena) Bools(n int) []bool {
	b := a.bools.alloc(n)
	for i := range b {
		b[i] = false
	}
	return b
}

// Matrix returns an r×c matrix whose header and data both live in the arena.
// The contents are NOT zeroed; callers that rely on zeroes must call Zero.
func (a *Arena) Matrix(r, c int) *mat.Dense {
	m := a.header()
	m.Reset(r, c, a.floats.alloc(r*c))
	return m
}

// View returns an arena-header view of m at (i, j, r, c): the aliasing
// semantics of (*mat.Dense).View without the per-view heap allocation.
func (a *Arena) View(m *mat.Dense, i, j, r, c int) *mat.Dense {
	v := a.header()
	m.ViewInto(v, i, j, r, c)
	return v
}

func (a *Arena) header() *mat.Dense {
	s := a.hdrs.alloc(1)
	return &s[0]
}

// Mark records the current allocation stack depth.
func (a *Arena) Mark() Mark {
	return Mark{
		fci: a.floats.ci, foff: a.floats.off,
		hci: a.hdrs.ci, hoff: a.hdrs.off,
		pci: a.ptrs.ci, poff: a.ptrs.off,
		bci: a.bools.ci, boff: a.bools.off,
		sci: a.scaleds.ci, soff: a.scaleds.off,
	}
}

// Release frees every allocation made since the mark was taken. Memory is
// retained for reuse; pointers handed out after the mark become invalid.
func (a *Arena) Release(m Mark) {
	a.floats.ci, a.floats.off = m.fci, m.foff
	a.hdrs.ci, a.hdrs.off = m.hci, m.hoff
	a.ptrs.ci, a.ptrs.off = m.pci, m.poff
	a.bools.ci, a.bools.off = m.bci, m.boff
	a.scaleds.ci, a.scaleds.off = m.sci, m.soff
}

// Reset releases everything, keeping the chunks. Unlike Release it also
// clears the header and pointer chunks: released headers may still hold
// data slices referencing caller matrices (views of the user's operands),
// and a pooled arena would otherwise pin those matrices against garbage
// collection for the life of the executor. Float/bool chunks hold no
// pointers and are left as-is.
func (a *Arena) Reset() {
	a.Release(Mark{})
	for _, c := range a.hdrs.chunks {
		clear(c)
	}
	for _, c := range a.ptrs.chunks {
		clear(c)
	}
	// Scaled entries embed *Dense and would pin operands the same way.
	for _, c := range a.scaleds.chunks {
		clear(c)
	}
}

// LiveFloatBytes reports the bytes of float temporaries currently allocated
// (between the arena's base and its stack pointer, full chunks below the
// current one included) — the "how deep in workspace is this step" coordinate
// execution traces record at each recursion mark. Unlike Bytes it measures
// live stack depth, not retained capacity. Allocation-free.
func (a *Arena) LiveFloatBytes() int64 {
	var n int64
	for i := 0; i < a.floats.ci && i < len(a.floats.chunks); i++ {
		n += int64(len(a.floats.chunks[i])) * 8
	}
	return n + int64(a.floats.off)*8
}

// Bytes reports the total bytes retained by the arena's chunks.
func (a *Arena) Bytes() int64 {
	var n int64
	for _, c := range a.floats.chunks {
		n += int64(len(c)) * 8
	}
	n += int64(a.hdrs.len()) * int64(unsafe.Sizeof(mat.Dense{}))
	n += int64(a.ptrs.len()) * 8
	n += int64(a.bools.len())
	n += int64(a.scaleds.len()) * int64(unsafe.Sizeof(mat.Scaled{}))
	return n
}

// Reserve warms the arena so a single contiguous allocation of n float64s
// (and anything smaller) will not trigger a new chunk. Allocations cannot
// span chunks, so this requires one chunk of at least n, not n in total.
// On an arena with no float allocation live (as a pooled arena comes from
// Get) the new chunk replaces the smaller ones instead of joining them, so
// an arena that serves one call after another — a pool shared by several
// executors — retains its largest reservation, not their sum.
func (a *Arena) Reserve(n int) {
	if n <= 0 {
		return // e.g. a below-cutoff problem with no fast-path workspace
	}
	for _, c := range a.floats.chunks {
		if len(c) >= n {
			return
		}
	}
	if n < minFloatChunk {
		n = minFloatChunk
	}
	if a.floats.ci == 0 && a.floats.off == 0 {
		clear(a.floats.chunks)
		a.floats.chunks = a.floats.chunks[:0]
	}
	a.floats.chunks = append(a.floats.chunks, make([]float64, n)) //fastmm:allow amortized warm-up chunk, retained across calls
}

func (f *floatSlab) alloc(n int) []float64 {
	for {
		if f.ci < len(f.chunks) {
			c := f.chunks[f.ci]
			if f.off+n <= len(c) {
				s := c[f.off : f.off+n : f.off+n]
				f.off += n
				return s
			}
			// Current chunk exhausted (or too small for n): move on. The
			// skipped tail is wasted until the next Release, not leaked.
			f.ci++
			f.off = 0
			continue
		}
		size := minFloatChunk
		if n > size {
			size = n
		}
		f.chunks = append(f.chunks, make([]float64, size)) //fastmm:allow amortized chunk growth, retained across calls
	}
}

func (s *slab[T]) alloc(n int) []T {
	for {
		if s.ci < len(s.chunks) {
			c := s.chunks[s.ci]
			if s.off+n <= len(c) {
				out := c[s.off : s.off+n : s.off+n]
				s.off += n
				return out
			}
			s.ci++
			s.off = 0
			continue
		}
		// Oversized requests (e.g. the rank-R scratch of a very high rank
		// algorithm) get a dedicated chunk, like floatSlab.
		size := s.chunkLen
		if n > size {
			size = n
		}
		s.chunks = append(s.chunks, make([]T, size)) //fastmm:allow amortized chunk growth, retained across calls
	}
}

func (s *slab[T]) len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}
