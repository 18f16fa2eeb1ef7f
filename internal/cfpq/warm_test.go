package cfpq

import (
	"math/rand"
	"testing"

	"mscfpq/internal/matrix"
)

// TestWarmIndexMatchesFreshProperty: an index warm-started from a prior
// version's relations answers every query on the grown graph exactly as
// a fresh index does — the soundness contract that lets gdb carry a
// PathCtx across versions (monotone edge addition keeps old facts
// derivable; processed-source claims are reset).
func TestWarmIndexMatchesFreshProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				n := 5 + rng.Intn(12)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				prior, err := NewIndex(g, w)
				if err != nil {
					t.Fatal(err)
				}
				// Populate the prior index with a few queries.
				for q := 0; q < 3; q++ {
					src := matrix.NewVectorFromIndices(n, []int{rng.Intn(n), rng.Intn(n)})
					if _, err := prior.MultiSourceSmart(src); err != nil {
						t.Fatal(err)
					}
				}
				// Grow a successor version: additions only, including new
				// vertices — the gdb write-path guarantee.
				g2 := g.CowClone()
				n2 := n + 1 + rng.Intn(3)
				for e := 0; e < 1+rng.Intn(6); e++ {
					g2.AddEdge(rng.Intn(n2), labels[rng.Intn(len(labels))], rng.Intn(n2))
				}
				n2 = g2.NumVertices()

				warm, err := NewIndexWarm(g2, w, prior)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewIndex(g2, w)
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 4; q++ {
					src := matrix.NewVectorFromIndices(n2, []int{rng.Intn(n2), rng.Intn(n2)})
					wa, err := warm.MultiSourceSmart(src)
					if err != nil {
						t.Fatal(err)
					}
					fa, err := fresh.MultiSourceSmart(src)
					if err != nil {
						t.Fatal(err)
					}
					if !wa.Answer().Equal(fa.Answer()) {
						t.Fatalf("trial %d query %d src=%v: warm differs from fresh\nwarm:  %v\nfresh: %v",
							trial, q, src.Ints(), wa.Answer().Pairs(), fa.Answer().Pairs())
					}
				}
			}
		})
	}
}

func TestWarmIndexNilPriorAndErrors(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	idx, err := NewIndexWarm(g, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.MultiSourceSmart(matrix.NewVectorFromIndices(6, []int{3})); err != nil {
		t.Fatal(err)
	}

	prior, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	// A different grammar object must be rejected even if structurally
	// equal: the seeded relation ids would silently mean other symbols.
	w2 := cndGrammar()
	if _, err := NewIndexWarm(g, w2, prior); err == nil {
		t.Fatal("expected grammar mismatch error")
	}
	// Warm-starting onto a SMALLER graph is not a supergraph.
	small := randomGraph(rand.New(rand.NewSource(1)), 3, 3, []string{"a", "b"})
	if _, err := NewIndexWarm(small, w, prior); err == nil {
		t.Fatal("expected shrunk-graph error")
	}
}

// TestWarmIndexConcurrentWithPriorQueries: warm starts clone the prior
// relations under the prior's lock but grow and seed the clones outside
// it, while queries on the prior keep growing the very matrices the
// clones share. Run under -race, the clones' answers must still match
// a fresh index and the prior's must match Algorithm 2.
func TestWarmIndexConcurrentWithPriorQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	labels := []string{"a", "b", "subClassOf"}
	w := testGrammars()["dyck"]
	const n = 40
	g := randomGraph(rng, n, 120, labels)
	g2 := g.CowClone()
	for e := 0; e < 20; e++ {
		g2.AddEdge(rng.Intn(n+5), labels[rng.Intn(len(labels))], rng.Intn(n+5))
	}
	n2 := g2.NumVertices()
	prior, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewIndex(g2, w)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(n)
	answers := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < n; lo += 4 {
			src := matrix.NewVectorFromIndices(n, perm[lo:lo+4])
			got, err := prior.MultiSourceSmart(src)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := MultiSource(g, w, src)
			if err != nil {
				t.Error(err)
				return
			}
			if !got.Answer().Equal(want.Answer()) {
				t.Errorf("prior query %v differs from Algorithm 2", src.Ints())
			}
			answers += got.Answer().NVals()
		}
	}()
	for round := 0; round < 10; round++ {
		warm, err := NewIndexWarm(g2, w, prior)
		if err != nil {
			t.Fatal(err)
		}
		src := matrix.NewVectorFromIndices(n2, []int{rng.Intn(n2), rng.Intn(n2)})
		wa, err := warm.MultiSourceSmart(src)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := fresh.MultiSourceSmart(src)
		if err != nil {
			t.Fatal(err)
		}
		if !wa.Answer().Equal(fa.Answer()) {
			t.Fatalf("round %d src=%v: warm differs from fresh", round, src.Ints())
		}
	}
	<-done
	if answers == 0 {
		t.Fatal("prior queries found no paths; the fixture exercises nothing")
	}
}
