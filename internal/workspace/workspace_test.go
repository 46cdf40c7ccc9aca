package workspace

import (
	"testing"

	"fastmm/internal/mat"
)

func TestMatrixDimsAndWrite(t *testing.T) {
	a := New()
	m := a.Matrix(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 || m.Stride() != 5 {
		t.Fatalf("got %d×%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	if m.At(2, 4) != 24 {
		t.Fatalf("At(2,4) = %g", m.At(2, 4))
	}
}

func TestViewAliases(t *testing.T) {
	a := New()
	m := a.Matrix(4, 4)
	m.Zero()
	v := a.View(m, 1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatalf("view write not visible in parent: %g", m.At(1, 1))
	}
	if v.Stride() != m.Stride() {
		t.Fatalf("view stride %d != parent %d", v.Stride(), m.Stride())
	}
}

func TestMarkReleaseReusesMemory(t *testing.T) {
	a := New()
	mk := a.Mark()
	m1 := a.Matrix(8, 8)
	m1.Fill(3)
	a.Release(mk)
	m2 := a.Matrix(8, 8)
	// Same memory handed out again (stack discipline) — and not zeroed.
	if &m2.Data()[0] != &m1.Data()[0] {
		t.Fatal("release did not rewind the float slab")
	}
	if m2.At(0, 0) != 3 {
		t.Fatalf("arena memory should not be zeroed on alloc, got %g", m2.At(0, 0))
	}
}

func TestNestedMarks(t *testing.T) {
	a := New()
	outer := a.Mark()
	s1 := a.Floats(10)
	inner := a.Mark()
	a.Floats(20)
	a.Release(inner)
	s2 := a.Floats(20)
	_ = s2
	a.Release(outer)
	s3 := a.Floats(10)
	if &s1[0] != &s3[0] {
		t.Fatal("outer release did not rewind past inner allocations")
	}
}

func TestFloatsOverflowToNewChunk(t *testing.T) {
	a := New()
	// Larger than one default chunk: must still be contiguous.
	big := a.Floats(minFloatChunk + 100)
	if len(big) != minFloatChunk+100 {
		t.Fatalf("len = %d", len(big))
	}
	big[len(big)-1] = 1 // must not panic
	if a.Bytes() < int64(len(big))*8 {
		t.Fatalf("Bytes %d < %d", a.Bytes(), len(big)*8)
	}
}

func TestScratchLargerThanChunk(t *testing.T) {
	a := New()
	p := a.Ptrs(3 * ptrChunkLen)
	if len(p) != 3*ptrChunkLen {
		t.Fatalf("len = %d", len(p))
	}
	p[len(p)-1] = &mat.Dense{} // must not panic
	b := a.Bools(2 * boolChunkLen)
	if len(b) != 2*boolChunkLen {
		t.Fatalf("len = %d", len(b))
	}
}

func TestReserveZeroIsFree(t *testing.T) {
	a := New()
	a.Reserve(0)
	if a.Bytes() != 0 {
		t.Fatalf("Reserve(0) retained %d bytes", a.Bytes())
	}
}

func TestBoolsAreCleared(t *testing.T) {
	a := New()
	b1 := a.Bools(5)
	for i := range b1 {
		b1[i] = true
	}
	a.Reset()
	b2 := a.Bools(5)
	for i, v := range b2 {
		if v {
			t.Fatalf("Bools[%d] not cleared after reuse", i)
		}
	}
}

func TestReserve(t *testing.T) {
	a := New()
	a.Reserve(3 * minFloatChunk)
	before := a.Bytes()
	a.Floats(2 * minFloatChunk)
	if a.Bytes() != before {
		t.Fatalf("Reserve did not cover the allocation: %d -> %d", before, a.Bytes())
	}
}

// TestReserveReplacesOnIdleArena: an idle arena whose chunks are all too
// small swaps them for the one reservation, so a pooled arena that served a
// smaller call retains the larger footprint, not both; an arena with live
// float allocations keeps them valid and grows instead.
func TestReserveReplacesOnIdleArena(t *testing.T) {
	a := New()
	a.Reserve(2 * minFloatChunk)
	a.Floats(minFloatChunk) // a small chunk's worth of live data...
	a.Reset()               // ...released, as Pool.Put does
	a.Reserve(5 * minFloatChunk)
	if got, want := a.Bytes(), int64(5*minFloatChunk*8); got != want {
		t.Fatalf("idle arena retained %d bytes after a larger reservation, want %d", got, want)
	}
	live := a.Floats(3)
	live[0] = 42
	a.Reserve(9 * minFloatChunk)
	if got, want := a.Bytes(), int64((5+9)*minFloatChunk*8); got != want {
		t.Fatalf("arena with live data retained %d bytes, want %d (both chunks)", got, want)
	}
	if live[0] != 42 {
		t.Fatal("a live allocation lost its data to Reserve")
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	a := New()
	work := func() {
		mk := a.Mark()
		m := a.Matrix(32, 32)
		v := a.View(m, 4, 4, 8, 8)
		v.Fill(1)
		a.Floats(100)
		a.Ptrs(10)
		a.Bools(10)
		a.Release(mk)
	}
	work() // warm the chunks
	if avg := testing.AllocsPerRun(100, work); avg != 0 {
		t.Fatalf("steady-state arena cycle allocates %.1f/op, want 0", avg)
	}
}

func TestPoolReuseAndBytes(t *testing.T) {
	var p Pool
	a1 := p.Get()
	a1.Floats(1000)
	p.Put(a1)
	if p.Bytes() == 0 || p.Arenas() != 1 {
		t.Fatalf("pool retained bytes=%d arenas=%d", p.Bytes(), p.Arenas())
	}
	a2 := p.Get()
	if a2 != a1 {
		t.Fatal("pool did not reuse the arena")
	}
	if p.Bytes() != 0 {
		t.Fatalf("checked-out arena still counted: %d", p.Bytes())
	}
	p.Put(a2)
}

func TestPoolMaxBytesDiscards(t *testing.T) {
	p := Pool{MaxBytes: 1}
	a1, a2 := p.Get(), p.Get()
	a1.Floats(1000)
	a2.Floats(1000)
	// An empty free list accepts one arena even over the cap (reuse must
	// survive a tight cap); the second over-cap Put is discarded.
	p.Put(a1)
	if p.Arenas() != 1 {
		t.Fatalf("first arena not retained under tight cap (got %d)", p.Arenas())
	}
	p.Put(a2)
	if p.Arenas() != 1 {
		t.Fatalf("over-cap arena retained (%d bytes, %d arenas)", p.Bytes(), p.Arenas())
	}
}

func TestResetClearsHeaderReferences(t *testing.T) {
	a := New()
	src := mat.New(64, 64)
	a.View(src, 0, 0, 32, 32)
	a.Ptrs(4)[0] = src
	a.Reset()
	for _, c := range a.hdrs.chunks {
		for i := range c {
			if c[i].Data() != nil {
				t.Fatal("Reset left a header referencing caller data (would pin it in the pool)")
			}
		}
	}
	for _, c := range a.ptrs.chunks {
		for i := range c {
			if c[i] != nil {
				t.Fatal("Reset left a live matrix pointer in the ptr slab")
			}
		}
	}
}

func TestResetKeepsChunks(t *testing.T) {
	a := New()
	a.Floats(100)
	b := a.Bytes()
	a.Reset()
	if a.Bytes() != b {
		t.Fatalf("Reset dropped chunks: %d -> %d", b, a.Bytes())
	}
}

func TestZeroSizedMatrix(t *testing.T) {
	a := New()
	m := a.Matrix(0, 5)
	if m.Rows() != 0 || m.Cols() != 5 {
		t.Fatalf("got %d×%d", m.Rows(), m.Cols())
	}
	var full mat.Dense
	full.Reset(2, 2, make([]float64, 4))
	v := a.View(&full, 1, 1, 0, 0)
	if v.Rows() != 0 {
		t.Fatal("zero view")
	}
}
