package cfpq

import (
	"math/rand"
	"runtime"
	"testing"

	"mscfpq/internal/dataset"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

// TestSmartSweepAllocs guards the hypersparse matrices and the
// copy-on-write query clones of Index.MultiSourceSmartFrom on the
// paper's motivating workload: one full pass of 10-source G1 queries
// over pathways (6,238 vertices) through one index. With an n-entry
// row header in every matrix and a deep clone of every cached relation
// per query, this pass allocated 24.0 MB per query; it now allocates
// about 1.2 MB, and the bound leaves headroom for allocator and
// pool noise (race builds included) while staying under a tenth of
// the old figure. The total work must not move: same algorithm, same
// products.
func TestSmartSweepAllocs(t *testing.T) {
	const (
		wantWork    = 647855  // Result.Work summed over the pass
		maxPerQuery = 2 << 20 // bytes allocated per query
	)
	spec, err := dataset.ByName("pathways")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Generate(spec)
	w, err := grammar.ToWCNF(grammar.G1())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(1)).Perm(n)
	var work int64
	queries := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lo := 0; lo < n; lo += 10 {
		r, err := idx.MultiSourceSmart(matrix.NewVectorFromIndices(n, perm[lo:min(lo+10, n)]))
		if err != nil {
			t.Fatal(err)
		}
		work += r.Work
		queries++
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / uint64(queries)
	t.Logf("%d queries: work %d, %d B/query", queries, work, perQuery)
	if work != wantWork {
		t.Errorf("total work = %d, want %d", work, wantWork)
	}
	if perQuery > maxPerQuery {
		t.Errorf("MultiSourceSmart allocates %d B/query; want <= %d", perQuery, maxPerQuery)
	}
}
