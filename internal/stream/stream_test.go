package stream

import "testing"

func TestKernelsProducePositiveBandwidth(t *testing.T) {
	for _, k := range []Kernel{Copy, Scale, Add, Triad} {
		r := Run(k, 1<<20, 2, 2)
		if r.GBps <= 0 {
			t.Fatalf("%v: bandwidth %v", k, r.GBps)
		}
		if r.Kernel != k || r.Workers != 2 {
			t.Fatalf("result metadata wrong: %+v", r)
		}
	}
}

func TestKernelNames(t *testing.T) {
	if Copy.String() != "copy" || Triad.String() != "triad" || Kernel(9).String() != "unknown" {
		t.Fatal("kernel names")
	}
}

func TestKernelSemantics(t *testing.T) {
	// Sanity: after Run(Add,...), internal arrays are consistent — covered
	// implicitly; here check bytesMoved accounting.
	if Copy.bytesMoved() != 16 || Add.bytesMoved() != 24 {
		t.Fatal("bytesMoved")
	}
}

func TestWorkerClamp(t *testing.T) {
	r := Run(Triad, 1024, 0, 1) // workers < 1 clamps to 1
	if r.Workers != 1 {
		t.Fatalf("workers=%d", r.Workers)
	}
}
