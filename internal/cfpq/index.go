package cfpq

import (
	"fmt"
	"sync"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// Index is the persistent cache of the optimized multiple-source
// algorithm (Algorithm 3): it pins a graph and a grammar and accumulates
// the relation matrices T and the already-processed source matrices
// TSrc across queries, so repeated or overlapping source sets reuse all
// previously computed facts instead of recomputing them from scratch.
//
// An Index is bound to an immutable snapshot of the graph: mutating the
// graph after NewIndex invalidates the cache (the paper's setting —
// static graph, repeated queries). Queries against one Index may run
// from multiple goroutines; they are serialized internally.
//
// Cancellation safety: each query runs its fixpoint on private clones
// of the cached matrices and folds them back only after the fixpoint
// completes. A query aborted by its context, timeout, or budget leaves
// the cache exactly as it found it — the index never publishes a
// half-grown (T, TSrc) pair.
type Index struct {
	G *graph.Graph
	W *grammar.WCNF

	mu   sync.Mutex
	T    []*matrix.Bool // guarded by mu: cached relation matrices, grown monotonically
	TSrc []*matrix.Bool // guarded by mu: sources already fully processed, per nonterminal

	opts    exec.Options
	queries int // guarded by mu
}

// NewIndex creates an empty cache for (g, w), seeding T from the simple
// and eps rules once; subsequent queries share the seeded matrices. The
// options become per-index defaults; per-query options layered on top
// via MultiSourceSmart override them.
func NewIndex(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*Index, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, err
	}
	return newIndex(g, w, newResult(w, g.NumVertices()).T, opts), nil
}

// newIndex seeds the relations T from g's simple and eps rules on top
// of whatever T already holds.
func newIndex(g *graph.Graph, w *grammar.WCNF, T []*matrix.Bool, opts []Option) *Index {
	n := g.NumVertices()
	r := &Result{W: w, T: T}
	initSimpleRules(r, g)
	initEpsRules(r, n)
	idx := &Index{G: g, W: w, T: T, TSrc: make([]*matrix.Bool, len(T)), opts: exec.Build(opts)}
	for a := range idx.TSrc {
		idx.TSrc[a] = matrix.NewBool(n, n)
	}
	return idx
}

// NewIndexWarm creates an index for (g, w) seeded from a prior index's
// accumulated relations — the warm start of the incremental re-query
// path: when a graph version grows out of an older one by edge and
// vertex ADDITIONS only (the gdb write path never deletes), every fact
// the old index derived remains derivable, because CFPQ facts are
// monotone under edge addition. Seeding T with them can therefore only
// skip work, never change answers. The processed-source matrices start
// EMPTY: a source fully processed against the old graph may reach new
// facts through the added edges, so its claim must not carry over —
// the first query touching it reprocesses it against the new graph.
//
// Each relation starts as a copy-on-write clone of the prior one (the
// prior index stays live for readers that already hold it), grown to
// the new vertex count, with the new graph's seeds ORed in.
//
// The caller is responsible for the supergraph relationship (in the
// store layer it follows from version lineage); w must be the prior
// index's grammar.
func NewIndexWarm(g *graph.Graph, w *grammar.WCNF, prior *Index, opts ...Option) (*Index, error) {
	if prior == nil {
		return NewIndex(g, w, opts...)
	}
	if err := checkInputs(g, w); err != nil {
		return nil, err
	}
	if prior.W != w {
		return nil, fmt.Errorf("cfpq: warm start requires the prior index's grammar")
	}
	n := g.NumVertices()
	if pn := prior.G.NumVertices(); pn > n {
		return nil, fmt.Errorf("cfpq: warm start from a larger graph (%d > %d vertices)", pn, n)
	}
	// Only the O(1) clones need the prior's lock: copy-on-write never
	// writes the storage they share, so growing and seeding them can run
	// while queries on the prior index go on.
	prior.mu.Lock()
	T := make([]*matrix.Bool, len(prior.T))
	for a, rel := range prior.T {
		T[a] = rel.CloneCOW()
	}
	prior.mu.Unlock()
	for _, rel := range T {
		rel.Resize(n, n)
	}
	return newIndex(g, w, T, opts), nil
}

// Queries returns the number of queries evaluated against the index.
func (idx *Index) Queries() int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.queries
}

// CachedSources returns the set of vertices whose start-nonterminal
// paths are already fully computed.
func (idx *Index) CachedSources() *matrix.Vector {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return matrix.DiagVector(idx.TSrc[idx.W.Start])
}

// MultiSourceSmart evaluates a multiple-source query against the cache
// (Algorithm 3). Vertices of src already present in the index are
// filtered out up front (line 3); during the fixpoint, propagated
// sources are filtered against the cached TSrc (lines 9-10) so each
// vertex is processed at most once per nonterminal across the lifetime
// of the index.
func (idx *Index) MultiSourceSmart(src *matrix.Vector, opts ...Option) (*MSResult, error) {
	if src == nil {
		return nil, fmt.Errorf("cfpq: nil source vector")
	}
	return idx.MultiSourceSmartFrom(map[int]*matrix.Vector{idx.W.Start: src}, opts...)
}

// MultiSourceSmartFrom is the generalization of Algorithm 3 the database
// layer uses (Section 4.3.2): source sets may be requested for arbitrary
// nonterminals (the named path patterns an operation depends on), and
// the cache is shared across all of them.
//
// The returned result holds a private snapshot of the relations as of
// this query's commit, safe to read while later queries grow the cache.
func (idx *Index) MultiSourceSmartFrom(srcByNT map[int]*matrix.Vector, opts ...Option) (*MSResult, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	run, cancel := idx.opts.Apply(opts).Start()
	defer cancel()
	n := idx.G.NumVertices()
	w := idx.W
	nnt := w.NumNonterms()

	newSrc := make([]*matrix.Bool, nnt)
	for a := range newSrc {
		newSrc[a] = matrix.NewBool(n, n)
	}
	requested := matrix.NewVector(n)
	// Line 3: only sources not yet in the cache enter the computation.
	for a, src := range srcByNT {
		if a < 0 || a >= nnt {
			return nil, fmt.Errorf("cfpq: source nonterminal id %d out of range", a)
		}
		if src == nil || src.Size() != n {
			return nil, fmt.Errorf("cfpq: source vector size mismatch (graph has %d vertices)", n)
		}
		matrix.AddInPlace(newSrc[a], unprocessed(idx.TSrc[a], src).Diag())
		if a == w.Start {
			requested = src.Clone()
		}
	}
	idx.queries++

	// The fixpoint mutates private copy-on-write clones of the cached
	// relations; the cache itself is only touched by the commit below,
	// so an abort (cancellation, timeout, budget) rolls back for free.
	work := make([]*matrix.Bool, nnt)
	for a := range work {
		work[a] = idx.T[a].CloneCOW()
	}

	rounds := 0
	for changed := true; changed; {
		if err := run.Err(); err != nil {
			return nil, err
		}
		changed = false
		rounds++
		span := run.StartSpan(obs.SpanRound(rounds))
		for _, rule := range w.BinRules {
			run.ObserveFrontier(newSrc[rule.A].NVals())
			m, err := run.Mul(newSrc[rule.A], work[rule.B])
			if err != nil {
				span.End()
				return nil, err
			}
			prod, err := run.Mul(m, work[rule.C])
			if err != nil {
				span.End()
				return nil, err
			}
			if run.Add(work[rule.A], prod) {
				changed = true
			}
			// TNewSrc^B += TNewSrc^A \ index.TSrc^B (line 9).
			deltaB := matrix.Sub(newSrc[rule.A], idx.TSrc[rule.B])
			if run.Add(newSrc[rule.B], deltaB) {
				changed = true
			}
			// TNewSrc^C += getDst(M) \ index.TSrc^C (line 10).
			deltaC := matrix.Sub(matrix.GetDst(m), idx.TSrc[rule.C])
			if run.Add(newSrc[rule.C], deltaC) {
				changed = true
			}
		}
		span.End()
	}
	obs.CFPQRounds.Observe(int64(rounds))

	// Commit: fold the fully-computed facts and processed sources into
	// the cache. AddInPlace (rather than pointer replacement) keeps the
	// matrices previously handed out by Relation growing monotonically;
	// it skips the rows work still shares with the cache, so the commit
	// costs the rows this query changed.
	srcSnap := make([]*matrix.Bool, nnt)
	for a := range work {
		matrix.AddInPlace(idx.T[a], work[a])
		matrix.AddInPlace(idx.TSrc[a], newSrc[a])
		srcSnap[a] = idx.TSrc[a].CloneCOW()
	}
	return &MSResult{
		Result:  &Result{W: w, T: work, Rounds: rounds, Work: run.Spent()},
		Src:     srcSnap,
		Sources: requested,
	}, nil
}

// unprocessed returns the vertices of src missing from the diagonal of
// tsrc, probing tsrc once per source.
func unprocessed(tsrc *matrix.Bool, src *matrix.Vector) *matrix.Vector {
	fresh := matrix.NewVector(src.Size())
	for _, v := range src.Indices() {
		if !tsrc.Get(int(v), int(v)) {
			fresh.Set(int(v))
		}
	}
	return fresh
}

// Relation returns the cached relation matrix for a nonterminal id. The
// matrix is shared with the index and grows as queries are evaluated.
func (idx *Index) Relation(a int) *matrix.Bool {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.T[a]
}

// ProcessedSources returns the vertices already fully processed for a
// nonterminal id — the diagonal of the cached TSrc matrix.
func (idx *Index) ProcessedSources(a int) *matrix.Vector {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return matrix.DiagVector(idx.TSrc[a])
}
