package matrix

import (
	"context"
	"fmt"
	"sync"
)

// ctxCheckRows is the row-block granularity at which the kernel polls
// for cancellation. Small enough that even dense blocks finish in well
// under a millisecond on CI-class hardware, large enough that the
// ctx.Err() atomic load is amortized away (measured <2% on the E3–E8
// sweep, see EXPERIMENTS.md).
const ctxCheckRows = 256

// hybridDensityThreshold is the right-operand density above which the
// hybrid kernel ORs bitset rows instead of merging sorted index slices.
// Chosen empirically: beyond a few percent density the bitset OR wins.
const hybridDensityThreshold = 0.05

// Kernel configures the one Boolean matrix multiplication kernel. The
// zero value multiplies serially; exec.Run fills it from the query's
// kernel options.
type Kernel struct {
	// Workers > 1 splits the left operand's rows across that many
	// goroutines.
	Workers int
	// Hybrid switches by operand density, like GraphBLAS's automatic
	// sparse/bitmap switching: right operands denser than
	// hybridDensityThreshold are multiplied as bitset rows.
	Hybrid bool
}

// Mul returns the Boolean product a * b over the (OR, AND) semiring,
// computed by the zero Kernel without cancellation.
func Mul(a, b *Bool) *Bool {
	m, _ := Kernel{}.Mul(context.Background(), a, b)
	return m
}

// Mul returns the Boolean product a * b. It polls ctx between row
// blocks and, once ctx is done, discards the product and returns the
// context's error.
func (k Kernel) Mul(ctx context.Context, a, b *Bool) (*Bool, error) {
	return k.mul(ctx, a, b, nil)
}

// Closure returns the transitive closure of a square matrix (without
// the reflexive diagonal unless already present), iterating M += M*M
// until fixpoint.
func (k Kernel) Closure(ctx context.Context, a *Bool) (*Bool, error) {
	if a.nrows != a.ncols {
		panic(fmt.Sprintf("matrix: Closure of non-square %dx%d", a.nrows, a.ncols))
	}
	m := a.Clone()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prod, err := k.Mul(ctx, m, m)
		if err != nil {
			return nil, err
		}
		if !AddInPlace(m, prod) {
			return m, nil
		}
	}
}

// Key packs a matrix coordinate into a map key.
func Key(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// UnKey unpacks a coordinate produced by Key.
func UnKey(k uint64) (i, j int) { return int(k >> 32), int(uint32(k)) }

// MulWitness returns the Boolean product a * b together with, for every
// true entry (i, j) of the product, one witness index k such that
// a[i,k] and b[k,j] are both true. Single-path CFPQ uses the witness to
// reconstruct a concrete path for each derived reachability fact.
func MulWitness(a, b *Bool) (*Bool, map[uint64]uint32) {
	wit := make(map[uint64]uint32)
	m, _ := Kernel{}.mul(context.Background(), a, b, wit)
	return m, wit
}

// mul runs mulRows over a's slots, split into one range per worker.
// The product takes a's slots (withSlotsOf), so workers write disjoint
// slots.
func (k Kernel) mul(ctx context.Context, a, b *Bool, wit map[uint64]uint32) (*Bool, error) {
	if a.ncols != b.nrows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d * %dx%d", a.nrows, a.ncols, b.nrows, b.ncols))
	}
	if a.nvals == 0 || b.nvals == 0 {
		return NewBool(a.nrows, b.ncols), ctx.Err()
	}
	var bits []uint64
	if k.Hybrid && wit == nil && b.Density() >= hybridDensityThreshold {
		bits = bitRows(b)
	}
	out := withSlotsOf(a, a.nrows, b.ncols)
	n := len(a.rows)
	if parts := k.Workers; wit == nil && parts > 1 && n >= 2*parts {
		errs := make([]error, parts)
		var wg sync.WaitGroup
		for p := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[p] = mulRows(ctx, a, b, bits, nil, p*n/parts, (p+1)*n/parts, out.rows)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else if err := mulRows(ctx, a, b, bits, wit, 0, n, out.rows); err != nil {
		return nil, err
	}
	return out.finish(), nil
}

// mulRows is the multiplication row loop: it stores the product rows of
// a's slots [lo, hi) into the same slots of rows, polling ctx every
// ctxCheckRows slots. Right-operand rows are read from bits (bitRows of
// b) when set, else merged from b's sorted rows; a non-nil wit records
// one witness per product entry.
func mulRows(ctx context.Context, a, b *Bool, bits []uint64, wit map[uint64]uint32, lo, hi int, rows [][]uint32) error {
	acc := getAccumulator(b.ncols)
	defer putAccumulator(acc)
	wpr := (b.ncols + 63) / 64
	bdense, brows := b.dense, b.rows
	plain := bits == nil && wit == nil
	for s := lo; s < hi; s++ {
		if (s-lo)%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ra := a.rows[s]
		if len(ra) == 0 {
			continue
		}
		acc.reset()
		for _, k := range ra {
			kb := int(k)
			if !bdense {
				kb = b.hyperSlot(kb)
			}
			if uint(kb) >= uint(len(brows)) {
				continue // no slot: row k of b is empty
			}
			switch {
			case plain:
				acc.orRow(brows[kb])
			case bits != nil:
				acc.orWords(bits[kb*wpr : (kb+1)*wpr])
			default:
				for _, j := range brows[kb] {
					if !acc.contains(j) {
						wit[Key(a.rowID(s), int(j))] = k
					}
				}
				acc.orRow(brows[kb])
			}
		}
		if len(acc.touched) > 0 {
			rows[s] = acc.extract(make([]uint32, 0, acc.count()))
		}
	}
	return nil
}

// bitRows renders b's slots as bitsets of (ncols+63)/64 words each, the
// hybrid kernel's form of a dense right operand.
func bitRows(b *Bool) []uint64 {
	wpr := (b.ncols + 63) / 64
	words := make([]uint64, len(b.rows)*wpr)
	for s, row := range b.rows {
		for _, c := range row {
			words[s*wpr+int(c>>6)] |= 1 << (c & 63)
		}
	}
	return words
}
