package matrix

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// hybrid is the density-switching kernel configuration.
var hybrid = Kernel{Hybrid: true}

func mustMul(t *testing.T, k Kernel, a, b *Bool) *Bool {
	t.Helper()
	m, err := k.Mul(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, m)
	return m
}

// The direct (dense-row) layout holds the same matrix as the
// hypersparse one: converting back and forth keeps every entry.
func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		m, _ := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(90), 0.2)
		d := m.Clone()
		if !d.dense {
			d.toDense()
		}
		mustValidate(t, d)
		if d.NVals() != m.NVals() {
			t.Fatalf("nvals: dense %d sparse %d", d.NVals(), m.NVals())
		}
		back := d.Clone()
		back.toHyper()
		mustValidate(t, back)
		if !back.Equal(m) || !d.Equal(m) {
			t.Fatal("round trip changed matrix")
		}
	}
}

func TestDenseSetGet(t *testing.T) {
	d := NewBool(3, 130) // multiple words per row, direct layout
	d.Set(1, 0)
	d.Set(1, 63)
	d.Set(1, 64)
	d.Set(2, 129)
	if !d.dense {
		t.Fatal("3-row matrix with 2 non-empty rows should use direct indexing")
	}
	if !d.Get(1, 0) || !d.Get(1, 63) || !d.Get(1, 64) || !d.Get(2, 129) {
		t.Fatal("set bits not readable")
	}
	if d.Get(0, 0) || d.Get(1, 65) {
		t.Fatal("phantom bits")
	}
	if d.NVals() != 4 {
		t.Fatalf("NVals = %d", d.NVals())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Get(3, 0)
}

func TestDenseCloneEqualOr(t *testing.T) {
	a := NewBool(2, 70)
	a.Set(0, 5)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(1, 69)
	if a.Equal(b) || a.Get(1, 69) {
		t.Fatal("clone shares storage")
	}
	if !AddInPlace(a, b) {
		t.Fatal("OR adding a bit must report change")
	}
	if !a.Get(1, 69) {
		t.Fatal("OR lost bit")
	}
	if AddInPlace(a, b) {
		t.Fatal("OR of subset must report no change")
	}
}

// The hybrid kernel's bitset path (right operand above the density
// threshold) agrees with the sorted-row merge.
func TestMulBoolDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 30; trial++ {
		a, _ := randomMatrix(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.25)
		b, _ := randomMatrix(rng, a.NCols(), 1+rng.Intn(80), 0.25)
		want := Mul(a, b)
		got := mustMul(t, hybrid, a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: dense kernel differs", trial)
		}
	}
}

// Both operands dense: the bitset path over direct-layout matrices.
func TestMulDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 30; trial++ {
		a, _ := randomMatrix(rng, 1+rng.Intn(15), 1+rng.Intn(70), 0.3)
		b, _ := randomMatrix(rng, a.NCols(), 1+rng.Intn(70), 0.3)
		want := Mul(a, b)
		got := mustMul(t, hybrid, a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: MulDense differs", trial)
		}
	}
}

// Property (testing/quick): the hybrid kernel always agrees with Mul,
// whichever path the density heuristic picks.
func TestMulHybridAgreesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	f := func(dense bool) bool {
		density := 0.02
		if dense {
			density = 0.3
		}
		a, _ := randomMatrix(rng, 12, 18, 0.2)
		b, _ := randomMatrix(rng, 18, 25, density)
		return mustMul(t, hybrid, a, b).Equal(Mul(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDensity(t *testing.T) {
	m := NewBool(4, 5)
	if m.Density() != 0 {
		t.Fatal("empty density")
	}
	m.Set(0, 0)
	m.Set(1, 1)
	if got := m.Density(); got != 0.1 {
		t.Fatalf("density = %v", got)
	}
	if NewBool(0, 0).Density() != 0 {
		t.Fatal("degenerate density")
	}
}

func TestDenseShapePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewBool(-1, 2) },
		func() { hybrid.Mul(context.Background(), NewBool(2, 3), NewBool(4, 2)) },
		func() { Mul(NewBool(2, 3), NewBool(4, 2)) },
		func() { AddInPlace(NewBool(2, 2), NewBool(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// ---------------------------------------------------------------------
// Kernel benchmarks: the sorted-row vs bitset ablation.

func benchPair(density float64) (*Bool, *Bool) {
	rng := rand.New(rand.NewSource(99))
	a, _ := randomMatrix(rng, 400, 400, 0.01)
	b, _ := randomMatrix(rng, 400, 400, density)
	return a, b
}

func BenchmarkMulSparseRHS(b *testing.B) {
	x, y := benchPair(0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulDenseRHSSparseKernel(b *testing.B) {
	x, y := benchPair(0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

// BenchmarkMulHybrid includes rendering the right operand as bitsets.
func BenchmarkMulHybrid(b *testing.B) {
	x, y := benchPair(0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hybrid.Mul(context.Background(), x, y)
	}
}

func BenchmarkTranspose(b *testing.B) {
	x, _ := benchPair(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(x)
	}
}

func BenchmarkAddInPlace(b *testing.B) {
	x, y := benchPair(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddInPlace(x.Clone(), y)
	}
}
