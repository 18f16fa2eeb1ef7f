package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mscfpq/internal/algebra"
	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/gdb"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
	"mscfpq/internal/plan"
	"mscfpq/internal/resp"
	"mscfpq/internal/store"
)

// spanTol bounds the self time of every kind of parent span: summed
// over the run, a parent's duration minus what its children cover may
// be at most this share of its summed duration. Every piece of the
// benchmark's own work inside an op (reply checks, memory statistics)
// is a span of its own, so a parent's self time is only the few
// statements between calls.
const spanTol = 0.05

// kernelKeys are the registry counters every span diffs.
var kernelKeys = [...]string{obs.KeyMulOps, obs.KeyMulNNZ, obs.KeyAddOps, obs.KeyAddNNZ, obs.KeyTransposeOps}

type kernels [len(kernelKeys)]int64

func kernelNow() kernels {
	return kernels{obs.KernelMulOps.Value(), obs.KernelMulNNZ.Value(), obs.KernelAddOps.Value(),
		obs.KernelAddNNZ.Value(), obs.KernelTransposeOps.Value()}
}

// span is one timed call into a layer, or a group of them.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Kernel kernels `json:"kernel"` // kernel.* deltas, in kernelKeys order
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	k0    []kernels
}

func (t *tracer) begin(op string, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	t.k0 = append(t.k0, kernelNow())
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	end := time.Since(t.t0).Nanoseconds()
	k := kernelNow()
	s := &t.spans[id]
	s.End = end
	for i := range k {
		s.Kernel[i] = k[i] - t.k0[id][i]
	}
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkSpans verifies that every parent's children lie inside it
// without overlapping, that the glue between them did no kernel work,
// that each kind of parent is covered by its children within spanTol,
// and that the root spans' kernel deltas add up to the registry's
// delta over the whole phase. It returns the largest self-time share.
func checkSpans(spans []span, registry kernels) (float64, error) {
	children := make([][]int, len(spans))
	var roots kernels
	for _, s := range spans {
		if s.Parent < 0 {
			for i := range roots {
				roots[i] += s.Kernel[i]
			}
			continue
		}
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	if roots != registry {
		return 0, fmt.Errorf("span kernel deltas %v != registry delta %v", roots, registry)
	}
	self, total := map[string]int64{}, map[string]int64{}
	for id, kids := range children {
		if len(kids) == 0 {
			continue
		}
		p := spans[id]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		var covered int64
		var sum kernels
		prevEnd := p.Start
		for _, k := range kids {
			c := spans[k]
			if c.Start < prevEnd || c.End > p.End {
				return 0, fmt.Errorf("op %s: span %s [%d,%d] outside its parent %s or overlapping a sibling", p.Op, c.Name, c.Start, c.End, p.Name)
			}
			prevEnd = c.End
			covered += c.dur()
			for i := range sum {
				sum[i] += c.Kernel[i]
			}
		}
		if sum != p.Kernel {
			return 0, fmt.Errorf("op %s: %s kernel delta %v != its children's %v", p.Op, p.Name, p.Kernel, sum)
		}
		self[p.Name] += p.dur() - covered
		total[p.Name] += p.dur()
	}
	worst := 0.0
	for name, t := range total {
		share := float64(self[name]) / float64(t)
		if share > spanTol {
			return share, fmt.Errorf("%s spans: self time %.3f ms of %.3f ms exceeds %.0f%%", name, float64(self[name])/1e6, float64(t)/1e6, spanTol*100)
		}
		worst = max(worst, share)
	}
	return worst, nil
}

// mirrors replays the serving stack's per-graph state next to the
// server so each layer can be called on its own: a shadow database
// receiving the same statements (so its result and context caches
// match the server's), gdb's path-context cache, and an Algorithm 3
// index per declaration set.
type mirrors struct {
	shadow   *gdb.DB
	ctxs     map[string]*ctxEntry
	idxs     map[string]*idxEntry
	plusExpr algebra.Expr
}

type ctxEntry struct {
	ctx     *plan.PathCtx
	version uint64
}

type idxEntry struct {
	idx     *cfpq.Index
	version uint64
}

// layerSums accumulates the traced run's per-layer figures.
type layerSums struct {
	reads, writes, g1Reads, plusReads int
	rttMS                             []float64
	respSelfUS, gdbUS, writeUS        float64
	replyBytes                        int64
	parseUS, buildUS, execUS          float64
	records                           int64
	ctxBuilds                         int
	ctxBuildUS                        float64
	hits, misses, invalidations       int64
	algebraUS                         float64
	smartUS                           float64
	work, rounds, answers             int64
	smartAlloc                        uint64
	served                            kernels
	mulNS                             float64
	mulBytes, mulAllocs               uint64
}

func us(d int64) float64 { return float64(d) / 1e3 }

// tracedOp runs one op through the server and then through each layer
// on its own, while the server is idle, recording a span per call.
func (m *mirrors) tracedOp(t *tracer, c *resp.Client, w *workload, o op, tables map[lang]*answers, sum *layerSums) (uint64, error) {
	key := o.key()
	root := t.begin(key, -1, "op")
	defer t.end(root)
	name := w.graphName()

	gdbName := "gdb.query"
	if o.write {
		gdbName = "gdb.write"
	}
	sp := t.begin(key, root, gdbName)
	shadowRes, err := m.shadow.QueryContext(context.Background(), name, o.query)
	t.end(sp)
	if err != nil {
		return 0, fmt.Errorf("op %s: shadow: %w", key, err)
	}
	gdbDur := t.spans[sp].dur()

	h0, m0, i0 := obs.CacheHits.Value(), obs.CacheMisses.Value(), obs.CacheInvalidations.Value()
	sp = t.begin(key, root, "resp.rtt")
	v, err := c.Do("GRAPH.QUERY", name, o.query)
	t.end(sp)
	if err != nil {
		return 0, fmt.Errorf("op %s: %w", key, err)
	}
	rtt := t.spans[sp]
	sum.invalidations += obs.CacheInvalidations.Value() - i0
	if o.write {
		sum.writes++
		sum.writeUS += us(gdbDur)
	} else {
		sum.reads++
		sum.hits += obs.CacheHits.Value() - h0
		sum.misses += obs.CacheMisses.Value() - m0
		for i := range sum.served {
			sum.served[i] += rtt.Kernel[i]
		}
		sum.rttMS = append(sum.rttMS, float64(rtt.dur())/1e6)
		sum.gdbUS += us(gdbDur)
		sum.respSelfUS += us(rtt.dur() - gdbDur)
	}

	sp = t.begin(key, root, "bench.check")
	d, err := checkTraced(o, v, shadowRes, tables, sum)
	t.end(sp)
	if err != nil || o.write {
		return 0, err
	}

	st, err := m.shadow.Get(name)
	if err != nil {
		return 0, err
	}
	snap := st.Snapshot()
	q, rs, err := m.pipeline(t, key, root, o.query, snap, sum)
	if err != nil {
		return 0, fmt.Errorf("op %s: pipeline: %w", key, err)
	}
	sp = t.begin(key, root, "bench.check")
	same := digest(rs.Rows) == d
	t.end(sp)
	if !same {
		return 0, fmt.Errorf("op %s: the replayed plan answered differently from the server", key)
	}

	g := snap.Graph()
	src := matrix.NewVectorFromIndices(g.NumVertices(), o.sources)
	var ms0, ms1 runtime.MemStats
	memstats := func(ms *runtime.MemStats) {
		sp := t.begin(key, root, "bench.memstats")
		runtime.ReadMemStats(ms)
		t.end(sp)
	}
	if len(q.PathPatterns) > 0 {
		sum.g1Reads++
		ie, err := m.index(t, key, root, q, snap)
		if err != nil {
			return 0, fmt.Errorf("op %s: index: %w", key, err)
		}
		memstats(&ms0)
		sp = t.begin(key, root, "cfpq.smart")
		r, err := ie.idx.MultiSourceSmart(src)
		t.end(sp)
		memstats(&ms1)
		if err != nil {
			return 0, fmt.Errorf("op %s: MultiSourceSmart: %w", key, err)
		}
		sum.smartUS += us(t.spans[sp].dur())
		sum.smartAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		sum.work += r.Work
		sum.rounds += int64(r.Rounds)
		sum.answers += int64(r.Answer().NVals())
	} else {
		sum.plusReads++
		env := plan.NewEnv(g, nil, snap)
		env.Run = exec.NewRun(context.Background())
		sp = t.begin(key, root, "algebra.eval")
		_, err := algebra.Eval(m.plusExpr, env)
		t.end(sp)
		if err != nil {
			return 0, fmt.Errorf("op %s: algebra: %w", key, err)
		}
		sum.algebraUS += us(t.spans[sp].dur())
	}

	diag, adj := src.Diag(), g.EdgeMatrix("subClassOf")
	memstats(&ms0)
	sp = t.begin(key, root, "matrix.mul")
	matrix.Mul(diag, adj)
	t.end(sp)
	memstats(&ms1)
	sum.mulNS += float64(t.spans[sp].dur())
	sum.mulBytes += ms1.TotalAlloc - ms0.TotalAlloc
	sum.mulAllocs += ms1.Mallocs - ms0.Mallocs
	return d, nil
}

// checkTraced verifies a traced reply: a CREATE's acknowledgement, or a
// read's rows against the oracle and against the shadow database.
func checkTraced(o op, v resp.Value, shadowRes *gdb.QueryResult, tables map[lang]*answers, sum *layerSums) (uint64, error) {
	rows, stats, err := decodeReply(v)
	if err != nil {
		return 0, fmt.Errorf("op %s: %w", o.key(), err)
	}
	if o.write {
		if shadowRes.NodesCreated != 2 || shadowRes.EdgesCreated != 1 {
			return 0, fmt.Errorf("op %s: shadow CREATE made %d nodes, %d edges", o.key(), shadowRes.NodesCreated, shadowRes.EdgesCreated)
		}
		return 0, checkWriteStats(o, stats)
	}
	sum.replyBytes += encodedSize(v)
	if err := checkReply(o, rows, tables[o.lang]); err != nil {
		return 0, err
	}
	d := digest(rows)
	if digest(shadowRes.Rows) != d {
		return 0, fmt.Errorf("op %s: the shadow database answered differently from the server", o.key())
	}
	return d, nil
}

// pipeline replays gdb's MATCH path one call at a time: parse, path
// context (cached per declaration set and version, warm-started on a
// new version, as gdb does), plan build, and plan execution.
func (m *mirrors) pipeline(t *tracer, key string, parent int, text string, snap *store.Snapshot, sum *layerSums) (*cypher.Query, *plan.ResultSet, error) {
	pp := t.begin(key, parent, "plan.pipeline")
	defer t.end(pp)

	sp := t.begin(key, pp, "cypher.parse")
	q, err := cypher.Parse(text)
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sum.parseUS += us(t.spans[sp].dur())

	var pctx *plan.PathCtx
	ctxKey := plan.CtxKey(q.PathPatterns)
	e := m.ctxs[ctxKey]
	if len(q.PathPatterns) > 0 && e != nil && e.version == snap.Version() {
		pctx = e.ctx
	} else {
		sp = t.begin(key, pp, "plan.ctx_build")
		switch {
		case len(q.PathPatterns) == 0:
			pctx, err = plan.NewPathCtx(snap.Graph(), nil)
		case e != nil:
			pctx, err = e.ctx.WarmSuccessor(snap.Graph())
		default:
			pctx, err = plan.NewPathCtx(snap.Graph(), q.PathPatterns)
		}
		t.end(sp)
		if err != nil {
			return nil, nil, err
		}
		if len(q.PathPatterns) > 0 {
			m.ctxs[ctxKey] = &ctxEntry{ctx: pctx, version: snap.Version()}
			sum.ctxBuilds++
			sum.ctxBuildUS += us(t.spans[sp].dur())
		}
	}

	sp = t.begin(key, pp, "plan.build")
	env := plan.NewEnv(snap.Graph(), nil, snap)
	p, err := plan.BuildWithCtx(q, env, pctx)
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sum.buildUS += us(t.spans[sp].dur())

	sp = t.begin(key, pp, "plan.exec")
	run, cancel := exec.Options{}.Start()
	rs, err := p.ExecuteWith(exec.WithRun(run))
	cancel()
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sum.execUS += us(t.spans[sp].dur())
	sum.records += int64(len(rs.Rows))
	return q, rs, nil
}

// index returns the probe's Algorithm 3 index for the query's
// declarations at the snapshot's version, built from
// plan.PatternsToGrammar and warm-started across versions like gdb's.
func (m *mirrors) index(t *tracer, key string, parent int, q *cypher.Query, snap *store.Snapshot) (*idxEntry, error) {
	ctxKey := plan.CtxKey(q.PathPatterns)
	e := m.idxs[ctxKey]
	if e != nil && e.version == snap.Version() {
		return e, nil
	}
	sp := t.begin(key, parent, "cfpq.index")
	defer t.end(sp)
	if e != nil {
		idx, err := cfpq.NewIndexWarm(snap.Graph(), e.idx.W, e.idx)
		if err != nil {
			return nil, err
		}
		e = &idxEntry{idx: idx, version: snap.Version()}
	} else {
		cf, err := plan.PatternsToGrammar(q.PathPatterns)
		if err != nil {
			return nil, err
		}
		wc, err := grammar.ToWCNF(cf)
		if err != nil {
			return nil, err
		}
		idx, err := cfpq.NewIndex(snap.Graph(), wc)
		if err != nil {
			return nil, err
		}
		e = &idxEntry{idx: idx, version: snap.Version()}
	}
	m.idxs[ctxKey] = e
	return e, nil
}

// encodedSize is the reply's size on the wire.
func encodedSize(v resp.Value) int64 {
	cw := &obs.CountingWriter{W: io.Discard}
	bw := bufio.NewWriter(cw)
	if err := resp.Write(bw, v); err != nil {
		return 0
	}
	if err := bw.Flush(); err != nil {
		return 0
	}
	return cw.N
}

// plusExpr is the algebra expression gdb evaluates for the inline
// [:subClassOf]+ pattern.
func plusExpr() (algebra.Expr, error) {
	q, err := cypher.Parse(plusRead([]int{0}))
	if err != nil {
		return nil, err
	}
	e, _, err := plan.TranslateConnection(q.Match.Patterns[0].Connections[0])
	return e, err
}

// tracedResult is what the traced phase reports.
type tracedResult struct {
	sums     layerSums
	spans    int
	selfMax  float64 // largest self-time share of any kind of parent span
	digests  map[string]uint64
	attempts int
}

// runTraced replays the workload's schedule with one client, the
// clients' streams taken in turn, on a fresh server plus a shadow
// database, and checks the span tree and kernel counters.
func runTraced(w *workload, stateDir string, seed int64, d time.Duration, tables map[lang]*answers, tracePath string) (*tracedResult, error) {
	s, err := setup(w, stateDir)
	if err != nil {
		return nil, err
	}
	defer s.remove()
	shadow, shadowDir, _, err := openDB(w, stateDir)
	if err != nil {
		s.stop()
		return nil, err
	}
	defer func() {
		//lint:ignore errdrop the shadow database is discarded with its directory
		shadow.Close()
		if shadowDir != "" {
			os.RemoveAll(shadowDir)
		}
	}()
	pe, err := plusExpr()
	if err != nil {
		s.stop()
		return nil, err
	}
	m := &mirrors{shadow: shadow, ctxs: map[string]*ctxEntry{}, idxs: map[string]*idxEntry{}, plusExpr: pe}
	c, err := resp.Dial(s.addr)
	if err != nil {
		s.stop()
		return nil, err
	}
	streams := w.streams(seed, s.n0)
	res := &tracedResult{digests: map[string]uint64{}}
	t := &tracer{t0: time.Now()}
	reg0 := obs.Default.Snapshot()
	deadline := time.Now().Add(d)
	var opErr error
	for i := 0; time.Now().Before(deadline); i++ {
		o := streams[i%len(streams)]()
		res.attempts++
		dg, err := m.tracedOp(t, c, w, o, tables, &res.sums)
		if err != nil {
			opErr = err
			break
		}
		if !o.write {
			res.digests[o.key()] = dg
		}
	}
	delta := obs.Default.Snapshot().Sub(reg0)
	//lint:ignore errdrop every reply was read and checked before the close
	c.Close()
	if werr := s.checkWrites(res.sums.writes); opErr == nil {
		opErr = werr
	}
	res.spans = len(t.spans)
	if err := t.write(tracePath); err != nil && opErr == nil {
		opErr = err
	}
	if opErr != nil {
		return res, opErr
	}
	var registry kernels
	for i, k := range kernelKeys {
		registry[i] = delta[k]
	}
	res.selfMax, err = checkSpans(t.spans, registry)
	return res, err
}
