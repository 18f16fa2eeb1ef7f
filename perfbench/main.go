// Command perfbench is the repository's end-to-end benchmark: it
// serves a generated graph from an in-process gdb database behind a
// RESP server, drives GRAPH.QUERY over real resp.Client connections
// with a seeded closed-loop schedule, checks every reply against
// internal/oracle, and prints one JSON result line.
//
// With -trace 0 it reports what a client sees (latency percentiles,
// throughput, set-up time, live heap). With -trace 1 it runs the
// schedule untraced, then replays it with one client while timing each
// layer's public entry points from the outside, and reports per-layer
// figures plus the consistency checks of the trace. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// procs is the benchmark process's GOMAXPROCS. Server and clients
// share one P, so the clients' requests interleave in the Go scheduler
// and garbage collection runs on the query's critical path. The
// machine's other CPUs are left to the kernel and to other tenants: on
// a shared 2-vCPU host one busy neighbour thread nearly doubled every
// latency with two Ps, and moved them by a few per cent with one.
const procs = 1

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured run length")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		stateDir = flag.String("state-dir", filepath.Join(".bench_build", "perfbench"), "directory for oracle tables, data directories and span dumps")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = fmt.Errorf("bad flags: -seconds %d, -trace %d", *seconds, *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	steal0 := stealJiffies()
	tables, err := prepareOracles(*stateDir, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	var report []string
	if *traced == 0 {
		res, report, err = endToEnd(w, *stateDir, *seed, d, setupReps, tables)
	} else {
		tracePath := filepath.Join(*stateDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		res, report, err = layers(w, *stateDir, *seed, d, tables, tracePath)
	}
	fmt.Println(stamp(root, w.name, *seed, stealJiffies()-steal0))
	for _, l := range report {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
		res.Correct = false
	}
	for _, k := range sortedKeys(res.Metrics) {
		if m := res.Metrics[k]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", k)
			res.Metrics[k] = metric{Value: 0, Unit: m.Unit}
			res.Correct = false
		}
		fmt.Printf("metric %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// prepareOracles makes sure the oracle tables of every workload are
// cached, so only the first run in a tree pays for computing them, and
// returns the selected workload's tables.
func prepareOracles(stateDir string, sel *workload) (map[lang]*answers, error) {
	dir := filepath.Join(stateDir, "oracle")
	var out map[lang]*answers
	for _, w := range workloads {
		g, err := w.generate()
		if err != nil {
			return nil, err
		}
		tabs := map[lang]*answers{}
		for _, l := range w.langs {
			a, err := loadAnswers(dir, g, l)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", w.name, l, err)
			}
			tabs[l] = a
		}
		if w == sel {
			out = tabs
		}
	}
	return out, nil
}

// merged pools the clients' outcomes.
func merged(outs []*outcome) *outcome {
	m := &outcome{digests: map[string]uint64{}}
	for _, o := range outs {
		m.readMS = append(m.readMS, o.readMS...)
		m.writeMS = append(m.writeMS, o.writeMS...)
		m.attempted += o.attempted
		m.failed += o.failed
		m.acked += o.acked
		m.errs = append(m.errs, o.errs...)
		for k, v := range o.digests {
			m.digests[k] = v
		}
	}
	return m
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 21

// untraced is one untraced run on a fresh stack, with its write check.
type untraced struct {
	out      *outcome
	wall     time.Duration
	heapLive float64
	gcFrac   float64
	allocs   uint64
	rounds   int
}

// runOnce runs the schedule untraced; with sampleHeap, the live heap
// is sampled once every client has completed the workload's heapAt ops.
// A workload with rounds moves to a fresh stack after every round; the
// measured time excludes the set-ups and write checks between rounds,
// and the runtime figures cover only the rounds themselves.
func runOnce(s *stack, w *workload, stateDir string, seed int64, d time.Duration, tables map[lang]*answers, sampleHeap bool) (*untraced, error) {
	u := &untraced{heapLive: math.NaN()}
	var heap *heapSample
	if sampleHeap {
		heap = newHeapSample(w.heapAt, w.clients)
	}
	streams := w.streams(seed, s.n0)
	var side *sideWriter
	if w.sideEvery > 0 {
		var err error
		if side, err = newSideWriter(w, stateDir); err != nil {
			s.stop()
			s.remove()
			return nil, err
		}
	}
	var outs []*outcome
	var gcSec, cpuSec float64
	for round := 0; ; round++ {
		if round > 0 {
			var err error
			if s, err = setup(w, stateDir); err != nil {
				if side != nil {
					side.close()
				}
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		gc0, cpu0 := gcCPU()
		a0 := totalAlloc()
		ro, wall, err := runUntraced(s, streams, tables, d-u.wall, w.roundOps, heap, side)
		if err != nil {
			s.stop()
			s.remove()
			if side != nil {
				side.close()
			}
			return nil, err
		}
		u.allocs += totalAlloc() - a0
		gc1, cpu1 := gcCPU()
		gcSec, cpuSec = gcSec+gc1-gc0, cpuSec+cpu1-cpu0
		u.wall += wall
		out := merged(ro)
		if heap != nil {
			u.heapLive = heap.mb
			if heap.late {
				fmt.Fprintf(os.Stderr, "perfbench: a client ended before %d ops; the live heap was sampled at its end\n", w.heapAt)
			}
			heap = nil
		}
		if err := s.checkWrites(out.acked); err != nil {
			out.fail(fmt.Errorf("acknowledged writes: %w", err))
		}
		s.remove()
		outs = append(outs, out)
		if w.roundOps == 0 || u.wall >= d {
			break
		}
	}
	if cpuSec > 0 {
		u.gcFrac = gcSec / cpuSec
	}
	u.rounds = len(outs)
	if side != nil {
		side.close()
		outs = append(outs, side.out)
	}
	u.out = merged(outs)
	return u, nil
}

func errLines(o *outcome) []string {
	var out []string
	for _, e := range o.errs {
		out = append(out, "error "+e.Error())
	}
	return out
}

// endToEnd measures set-up and the untraced run.
func endToEnd(w *workload, stateDir string, seed int64, d time.Duration, reps int, tables map[lang]*answers) (*result, []string, error) {
	setups := make([]float64, reps)
	var s *stack
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		st, err := setup(w, stateDir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
		if i == reps-1 {
			s = st
			break
		}
		if err := st.stop(); err != nil {
			return nil, nil, err
		}
		st.remove()
	}
	u, err := runOnce(s, w, stateDir, seed, d, tables, true)
	if err != nil {
		return nil, nil, err
	}
	o := u.out
	readMS, writeMS := o.readMS, o.writeMS
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"read_p50_ms":  {percentile(readMS, 50), "ms"},
			"read_p90_ms":  {percentile(readMS, 90), "ms"},
			"read_qps":     {float64(len(readMS)) / u.wall.Seconds(), "1/s"},
			"write_p50_ms": {percentile(writeMS, 50), "ms"},
			"setup_s":      {percentile(setups, 50), "s"},
			"heap_live_mb": {u.heapLive, "MB"},
		},
	}
	report := []string{
		fmt.Sprintf("run reads=%d writes=%d wall_s=%.3f rounds=%d attempted=%d failed=%d error_rate=%g",
			len(readMS), len(writeMS), u.wall.Seconds(), u.rounds, o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1))),
		fmt.Sprintf("tail read_p90_beyond=%d read_p99_ms=%.4f read_p99_beyond=%d write_p90_ms=%.4f write_p90_beyond=%d setup_reps=%d",
			beyond(len(readMS), 90), percentile(readMS, 99), beyond(len(readMS), 99), percentile(writeMS, 90), beyond(len(writeMS), 90), reps),
	}
	dec := "deciles read_ms"
	for p := 10.0; p < 100; p += 10 {
		dec += fmt.Sprintf(" %.3f", percentile(readMS, p))
	}
	dec += " write_ms"
	for p := 10.0; p < 100; p += 10 {
		dec += fmt.Sprintf(" %.3f", percentile(writeMS, p))
	}
	report = append(report, dec+fmt.Sprintf(" read_mean_ms %.4f write_mean_ms %.4f", mean(readMS), mean(writeMS)))
	return res, append(report, errLines(o)...), nil
}

// layers runs the schedule untraced for half the time, then replays it
// traced for the other half, and reports per-layer figures.
func layers(w *workload, stateDir string, seed int64, d time.Duration, tables map[lang]*answers, tracePath string) (*result, []string, error) {
	s, err := setup(w, stateDir)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	u, err := runOnce(s, w, stateDir, seed, d/2, tables, false)
	if err != nil {
		return nil, nil, err
	}
	tr, terr := runTraced(w, stateDir, seed, d/2, tables, tracePath)
	res := &result{Correct: u.out.failed == 0 && terr == nil, Attempted: u.out.attempted, Failed: u.out.failed}
	report := errLines(u.out)
	if tr == nil {
		return res, report, terr
	}
	res.Attempted += tr.attempts
	if terr != nil {
		res.Failed++
	}
	mismatch, compared := 0, 0
	for k, dg := range tr.digests {
		if ud, ok := u.out.digests[k]; ok {
			compared++
			if ud != dg {
				mismatch++
			}
		}
	}
	if mismatch > 0 {
		res.Correct = false
		res.Failed += mismatch
		report = append(report, fmt.Sprintf("error %d traced replies differ from the untraced run", mismatch))
	}
	sm := tr.sums
	untracedP50 := percentile(u.out.readMS, 50)
	// per divides a total by a count, 0 when nothing was counted.
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	m := map[string]metric{
		"resp.self_us":                 {per(sm.respSelfUS, sm.reads), "us"},
		"resp.reply_bytes":             {per(float64(sm.replyBytes), sm.reads), "bytes"},
		"gdb.query_us":                 {per(sm.gdbUS, sm.reads), "us"},
		"gdb.write_us":                 {per(sm.writeUS, sm.writes), "us"},
		"cypher.parse_us":              {per(sm.parseUS, sm.reads), "us"},
		"store.cache_hit_ratio":        {per(float64(sm.hits), int(sm.hits+sm.misses)), "ratio"},
		"store.cache_invalidations":    {per(float64(sm.invalidations), sm.writes), "count"},
		"plan.ctx_build_us":            {per(sm.ctxBuildUS, sm.ctxBuilds), "us"},
		"plan.ctx_builds":              {per(float64(sm.ctxBuilds), sm.reads), "count"},
		"plan.build_us":                {per(sm.buildUS, sm.reads), "us"},
		"plan.exec_us":                 {per(sm.execUS, sm.reads), "us"},
		"plan.records":                 {per(float64(sm.records), sm.reads), "count"},
		"algebra.eval_us":              {per(sm.algebraUS, sm.plusReads), "us"},
		"cfpq.smart_us":                {per(sm.smartUS, sm.g1Reads), "us"},
		"cfpq.work":                    {per(float64(sm.work), sm.g1Reads), "count"},
		"cfpq.rounds":                  {per(float64(sm.rounds), sm.g1Reads), "count"},
		"cfpq.useful_ratio":            {per(float64(sm.answers), int(sm.work)), "ratio"},
		"cfpq.alloc_bytes":             {per(float64(sm.smartAlloc), sm.g1Reads), "bytes"},
		"matrix.mul_ops":               {per(float64(sm.served[0]), sm.reads), "count"},
		"matrix.mul_nnz":               {per(float64(sm.served[1]), sm.reads), "count"},
		"matrix.add_ops":               {per(float64(sm.served[2]), sm.reads), "count"},
		"matrix.add_nnz":               {per(float64(sm.served[3]), sm.reads), "count"},
		"matrix.mul_ns":                {per(sm.mulNS, sm.reads), "ns"},
		"matrix.mul_bytes":             {per(float64(sm.mulBytes), sm.reads), "bytes"},
		"matrix.mul_allocs":            {per(float64(sm.mulAllocs), sm.reads), "count"},
		"runtime.gc_cpu_frac":          {u.gcFrac, "ratio"},
		"runtime.alloc_bytes_per_read": {per(float64(u.allocs), len(u.out.readMS)), "bytes"},
		"trace.overhead_ms":            {percentile(sm.rttMS, 50) - untracedP50, "ms"},
	}
	res.Metrics = m
	report = append(report,
		fmt.Sprintf("untraced reads=%d writes=%d read_p50_ms=%.4f", len(u.out.readMS), len(u.out.writeMS), untracedP50),
		fmt.Sprintf("traced ops=%d reads=%d writes=%d spans=%d read_p50_ms=%.4f compared=%d", tr.attempts, sm.reads, sm.writes, tr.spans, percentile(sm.rttMS, 50), compared),
		fmt.Sprintf("checks span_self_share=%.2f%% (tolerance %.0f%%) kernel_sum=exact traced_answers_equal=%t", tr.selfMax*100, spanTol*100, mismatch == 0),
		"trace "+tracePath,
	)
	return res, report, terr
}
