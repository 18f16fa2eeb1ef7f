package matrix

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// pairModel is the reference model of a Boolean matrix: its shape and
// the set of its true entries.
type pairModel struct {
	nrows, ncols int
	set          map[[2]int]bool
}

func (p *pairModel) clone() *pairModel {
	c := &pairModel{nrows: p.nrows, ncols: p.ncols, set: make(map[[2]int]bool, len(p.set))}
	for k := range p.set {
		c.set[k] = true
	}
	return c
}

func (p *pairModel) pairs() [][2]int {
	out := make([][2]int, 0, len(p.set))
	for k := range p.set {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return out
}

func (p *pairModel) matrix() *Bool { return NewBoolFromPairs(p.nrows, p.ncols, p.pairs()) }

// subject is one matrix under test with its model. A frozen subject
// was the source of CloneFrozen and is never mutated again.
type subject struct {
	m      *Bool
	model  *pairModel
	frozen bool
}

func (s *subject) check(label string) error {
	if err := s.m.validate(); err != nil {
		return fmt.Errorf("%s: %v", label, err)
	}
	if s.m.NRows() != s.model.nrows || s.m.NCols() != s.model.ncols {
		return fmt.Errorf("%s: shape %dx%d, model %dx%d", label, s.m.NRows(), s.m.NCols(), s.model.nrows, s.model.ncols)
	}
	if got, want := s.m.Pairs(), s.model.pairs(); !slices.Equal(got, want) {
		return fmt.Errorf("%s: entries %v, model %v", label, got, want)
	}
	return nil
}

// randomRows returns an nrows x ncols model whose rows are non-empty
// with probability rowP, each with up to 3 entries.
func randomRows(rng *rand.Rand, nrows, ncols int, rowP float64) *pairModel {
	p := &pairModel{nrows: nrows, ncols: ncols, set: map[[2]int]bool{}}
	for i := 0; i < nrows; i++ {
		if rng.Float64() < rowP {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				p.set[[2]int{i, rng.Intn(ncols)}] = true
			}
		}
	}
	return p
}

// TestBoolAgainstModel drives random operation sequences against the
// map-of-pairs model. After every step every live matrix — including
// COW and frozen clones whose siblings kept mutating — must validate
// and equal its model. Dense fills and heavy subtractions push the
// matrices across the hypersparse/direct layout switch both ways.
func TestBoolAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	toDense, toHyper := 0, 0
	for seq := 0; seq < 60; seq++ {
		n := 16 + rng.Intn(80)
		subjects := []*subject{{m: NewBool(n, n), model: randomRows(rng, n, n, 0)}}
		for step := 0; step < 120; step++ {
			s := subjects[rng.Intn(len(subjects))]
			m, model := s.m, s.model
			wasDense := m.dense
			op := rng.Intn(13)
			if s.frozen && op < 9 {
				op = 9 + rng.Intn(4) // read-only ops only
			}
			switch op {
			case 0, 1:
				i, j := rng.Intn(model.nrows), rng.Intn(model.ncols)
				m.Set(i, j)
				model.set[[2]int{i, j}] = true
			case 2:
				i, j := rng.Intn(model.nrows), rng.Intn(model.ncols)
				if rng.Intn(2) == 0 && len(model.set) > 0 {
					k := model.pairs()[rng.Intn(len(model.set))]
					i, j = k[0], k[1]
				}
				m.Unset(i, j)
				delete(model.set, [2]int{i, j})
			case 3:
				i := rng.Intn(model.nrows)
				var cols []uint32
				for j := 0; j < model.ncols; j++ {
					delete(model.set, [2]int{i, j})
					if rng.Intn(8) == 0 {
						cols = append(cols, uint32(j))
						model.set[[2]int{i, j}] = true
					}
				}
				m.SetRow(i, cols)
			case 4: // fill: crosses into the direct layout
				add := randomRows(rng, model.nrows, model.ncols, rng.Float64())
				AddInPlace(m, add.matrix())
				for k := range add.set {
					model.set[k] = true
				}
			case 5: // thin: crosses back to hypersparse
				sub := randomRows(rng, model.nrows, model.ncols, 0)
				for k := range model.set {
					if rng.Intn(10) > 0 {
						sub.set[k] = true
					}
				}
				SubInPlace(m, sub.matrix())
				for k := range sub.set {
					delete(model.set, k)
				}
			case 6:
				if rng.Intn(4) == 0 {
					m.Clear()
					model.set = map[[2]int]bool{}
				}
			case 7:
				dr, dc := rng.Intn(4), rng.Intn(4)
				m.Resize(model.nrows+dr, model.ncols+dc)
				model.nrows += dr
				model.ncols += dc
			case 8:
				subjects = append(subjects, &subject{m: m.CloneCOW(), model: model.clone()})
			case 9:
				if !s.frozen {
					s.frozen = true
					subjects = append(subjects, &subject{m: m.CloneFrozen(), model: model.clone()})
				}
			case 10, 11: // Mul under every kernel configuration
				other := randomRows(rng, model.ncols, 1+rng.Intn(40), 0.5)
				want := &pairModel{nrows: model.nrows, ncols: other.ncols, set: map[[2]int]bool{}}
				for a := range model.set {
					for b := range other.set {
						if a[1] == b[0] {
							want.set[[2]int{a[0], b[1]}] = true
						}
					}
				}
				for _, k := range []Kernel{{}, {Workers: 3}, {Hybrid: true}} {
					got, err := k.Mul(context.Background(), m, other.matrix())
					if err != nil {
						t.Fatal(err)
					}
					if err := (&subject{m: got, model: want}).check(fmt.Sprintf("seq %d step %d: Mul %+v", seq, step, k)); err != nil {
						t.Fatal(err)
					}
				}
			case 12:
				want := &pairModel{nrows: model.ncols, ncols: model.nrows, set: map[[2]int]bool{}}
				for a := range model.set {
					want.set[[2]int{a[1], a[0]}] = true
				}
				if err := (&subject{m: Transpose(m), model: want}).check(fmt.Sprintf("seq %d step %d: Transpose", seq, step)); err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case !wasDense && m.dense:
				toDense++
			case wasDense && !m.dense:
				toHyper++
			}
			for k, o := range subjects {
				if err := o.check(fmt.Sprintf("seq %d step %d op %d: subject %d", seq, step, op, k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if toDense == 0 || toHyper == 0 {
		t.Fatalf("layout switches: %d to direct, %d to hypersparse; the sequences must cross both ways", toDense, toHyper)
	}
	t.Logf("layout switches: %d to direct, %d to hypersparse", toDense, toHyper)
}
