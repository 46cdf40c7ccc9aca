package costmodel

import (
	"math"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/catalog"
)

// The paper's closed forms (§2.1) for N a power of two with full recursion:
// classical F_C(N) = 2N³ − N², Strassen F_S(N) = 7N^log₂7 − 6N².
func TestStrassenClosedForm(t *testing.T) {
	m, err := New(catalog.Strassen(), addchain.WriteOnce, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		steps := int(math.Log2(float64(n)))
		c, err := m.Evaluate(n, n, n, steps)
		if err != nil {
			t.Fatal(err)
		}
		nf := float64(n)
		want := 7*math.Pow(nf, math.Log2(7)) - 6*nf*nf
		if got := c.Flops(); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("N=%d: flops %.0f want %.0f", n, got, want)
		}
		if c.BaseCalls != math.Pow(7, float64(steps)) {
			t.Fatalf("N=%d: base calls %v", n, c.BaseCalls)
		}
	}
}

func TestClassicalAlgorithmMatchesClassicalCount(t *testing.T) {
	// Recursing on the classical ⟨2,2,2⟩ decomposition must reproduce
	// F_C(N) = 2N³ − N² exactly at any depth.
	m, err := New(algo.Classical(2, 2, 2), addchain.WriteOnce, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 32, 128} {
		for steps := 0; steps <= 3; steps++ {
			c, err := m.Evaluate(n, n, n, steps)
			if err != nil {
				t.Fatal(err)
			}
			nf := float64(n)
			want := 2*nf*nf*nf - nf*nf
			if got := c.Flops(); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("N=%d steps=%d: flops %.0f want %.0f", n, steps, got, want)
			}
		}
	}
}

func TestMulFlopsDecreaseWithDepthForStrassen(t *testing.T) {
	m, _ := New(catalog.Strassen(), addchain.WriteOnce, false)
	prev := math.Inf(1)
	for steps := 0; steps <= 4; steps++ {
		c, err := m.Evaluate(256, 256, 256, steps)
		if err != nil {
			t.Fatal(err)
		}
		if c.MulFlops >= prev {
			t.Fatalf("steps=%d: mul flops %v did not decrease", steps, c.MulFlops)
		}
		prev = c.MulFlops
	}
}

func TestMulRatioMatchesTable2(t *testing.T) {
	// One step of Strassen: 8/7 ≈ 1.143 (Table 2's 14%), up to the −N²
	// term's small correction.
	m, _ := New(catalog.Strassen(), addchain.WriteOnce, false)
	ratio, err := m.MulRatio(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.13 || ratio > 1.15 {
		t.Fatalf("one-step ratio %v, want ≈8/7", ratio)
	}
}

func TestStrassen18AdditionsPerStep(t *testing.T) {
	// One step at size N: 18 block additions of (N/2)² elements (§2.1's
	// F_S recurrence coefficient).
	m, _ := New(catalog.Strassen(), addchain.WriteOnce, false)
	n := 64
	c, err := m.Evaluate(n, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 18.0 * float64(n/2) * float64(n/2)
	if c.AddFlops != want {
		t.Fatalf("add flops %v want %v", c.AddFlops, want)
	}
}

func TestIndivisibleDimsRejected(t *testing.T) {
	m, _ := New(catalog.Strassen(), addchain.WriteOnce, false)
	if _, err := m.Evaluate(63, 64, 64, 1); err == nil {
		t.Fatal("want divisibility error")
	}
	if _, err := m.Evaluate(64, 64, 64, 7); err == nil {
		t.Fatal("want divisibility error at depth")
	}
}

func TestStrategyReadWriteOrdering(t *testing.T) {
	// §3.2: pairwise performs the most reads; streaming the fewest.
	mk := func(s addchain.Strategy) Cost {
		m, err := New(catalog.MustGet("fast424"), s, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.Evaluate(4*32, 2*32, 4*32, 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pw, wo, st := mk(addchain.Pairwise), mk(addchain.WriteOnce), mk(addchain.Streaming)
	if !(st.Reads <= wo.Reads && wo.Reads < pw.Reads) {
		t.Fatalf("read ordering violated: %v %v %v", st.Reads, wo.Reads, pw.Reads)
	}
	if wo.Writes > pw.Writes {
		t.Fatalf("write-once should not write more than pairwise: %v vs %v", wo.Writes, pw.Writes)
	}
}

func TestCSEReducesAddFlops(t *testing.T) {
	// fast424 has 20 CSE-eliminable additions (see Table 3 reproduction);
	// the model must show fewer addition flops with CSE on.
	base, _ := New(catalog.MustGet("fast424"), addchain.WriteOnce, false)
	cse, _ := New(catalog.MustGet("fast424"), addchain.WriteOnce, true)
	cb, err := base.Evaluate(4*16, 2*16, 4*16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := cse.Evaluate(4*16, 2*16, 4*16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cc.AddFlops >= cb.AddFlops {
		t.Fatalf("CSE should reduce addition flops: %v vs %v", cc.AddFlops, cb.AddFlops)
	}
}

func TestRejectsInvalidAlgorithm(t *testing.T) {
	bad := catalog.Strassen().Clone()
	bad.V.Set(0, 0, 9)
	if _, err := New(bad, addchain.WriteOnce, false); err == nil {
		t.Fatal("want verification error")
	}
}
