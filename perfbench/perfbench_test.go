package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {1000, 99, 10}, {120, 99, 1}, {99, 90, 9}, {0, 50, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// take draws n ops from each of a workload's streams in turn.
func take(w *workload, seed int64, nv, n int) []op {
	streams := w.streams(seed, nv)
	var out []op
	for i := 0; i < n; i++ {
		out = append(out, streams[i%len(streams)]())
	}
	return out
}

func TestSchedulesDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := take(w, 7, 500, 300), take(w, 7, 500, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if reflect.DeepEqual(a, take(w, 8, 500, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		for _, o := range a {
			for _, s := range o.sources {
				if s < 0 || s >= 500 {
					t.Fatalf("%s: source %d outside the initial graph", w.name, s)
				}
			}
			if o.write != (o.query == writeQuery) {
				t.Fatalf("%s: op %s write flag disagrees with %q", w.name, o.key(), o.query)
			}
		}
	}
}

func TestWriteShares(t *testing.T) {
	for name, share := range map[string][2]int{"hier-rw": {3, 8}, "hot-mixed": {1, 20}, "sweep-pathways": {0, 1}} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		writes := 0
		ops := take(w, 1, 500, 640)
		for _, o := range ops {
			if o.write {
				writes++
			}
		}
		if want := len(ops) * share[0] / share[1]; writes != want {
			t.Errorf("%s: %d writes in %d ops, want %d", name, writes, len(ops), want)
		}
	}
}

func TestSweepPassesAreDisjoint(t *testing.T) {
	next := sweepStream(3, 95, 10)
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		o := next()
		for _, s := range o.sources {
			if seen[s] {
				t.Fatalf("vertex %d swept twice in one pass", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != 95 {
		t.Fatalf("one pass covered %d of 95 vertices", len(seen))
	}
	if o := next(); o.query == g1Read("S", o.sources, false) {
		t.Error("the second pass reuses the first pass's pattern name")
	}
}

func TestHierDealsEveryVertex(t *testing.T) {
	const n = 200
	next := hierStream(4, n)
	count := map[int]int{}
	for reads := 0; reads < 3*n/10; {
		o := next()
		if o.write {
			continue
		}
		reads++
		for _, s := range o.sources {
			count[s]++
		}
	}
	for v := 0; v < n; v++ {
		if count[v] != 3 {
			t.Fatalf("three passes drew vertex %d %d times", v, count[v])
		}
	}
}

func TestHotCatalogueAndZipf(t *testing.T) {
	cat := hotCatalogue(1323)
	if !reflect.DeepEqual(cat, hotCatalogue(1323)) {
		t.Fatal("catalogue is not deterministic")
	}
	rank := map[[5]int]int{}
	for i, set := range cat {
		distinct := map[int]bool{}
		for _, s := range set {
			distinct[s] = true
		}
		if len(set) != 5 || len(distinct) != 5 {
			t.Fatalf("catalogue set %v is not five distinct vertices", set)
		}
		rank[[5]int(set)] = i
	}
	if len(rank) != hotCatalogueSize {
		t.Fatalf("catalogue has %d distinct sets, want %d", len(rank), hotCatalogueSize)
	}
	hits := make([]int, hotCatalogueSize)
	inline, reads := 0, 0
	next := hotStream(5, 0, cat)
	for i := 0; i < 20000; i++ {
		o := next()
		if o.write {
			continue
		}
		reads++
		hits[rank[[5]int(o.sources)]]++
		if o.lang == langPlus {
			inline++
		}
	}
	if hits[0] <= hits[1] || hits[1] <= hits[10] || hits[10] <= hits[63] {
		t.Errorf("ranks 0, 1, 10, 63 drawn %d, %d, %d, %d times: not Zipf-skewed", hits[0], hits[1], hits[10], hits[63])
	}
	if share := float64(inline) / float64(reads); share < 0.2 || share > 0.3 {
		t.Errorf("inline share %.3f, want about 1/4", share)
	}
}

func TestCheckReply(t *testing.T) {
	a := tabulate(4, [][2]int{{1, 3}, {0, 2}, {0, 1}, {3, 3}})
	pairs := op{sources: []int{0, 1, 2}}
	if err := checkReply(pairs, [][]int64{{0, 1}, {1, 3}, {0, 2}}, a); err != nil {
		t.Errorf("correct pairs rejected: %v", err)
	}
	for _, bad := range [][][]int64{
		{{0, 1}, {1, 3}},                 // missing target
		{{0, 1}, {0, 2}, {1, 3}, {1, 2}}, // extra target
		{{0, 1}, {0, 2}, {1, 3}, {3, 3}}, // row from a non-source
		{{0, 1}, {0, 1}, {1, 3}},         // wrong target set, right count
	} {
		if checkReply(pairs, bad, a) == nil {
			t.Errorf("wrong rows %v accepted", bad)
		}
	}
	count := op{sources: []int{0, 0, 3}, count: true}
	if err := checkReply(count, [][]int64{{3}}, a); err != nil {
		t.Errorf("correct count rejected: %v", err)
	}
	if checkReply(count, [][]int64{{4}}, a) == nil {
		t.Error("count that double-counts a repeated source accepted")
	}
	if digest([][]int64{{1, 2}, {0, 5}}) != digest([][]int64{{0, 5}, {1, 2}}) {
		t.Error("digest depends on row order")
	}
	if digest([][]int64{{1, 2}}) == digest([][]int64{{2, 1}}) {
		t.Error("digest ignores cell order")
	}
}

func TestCheckSpans(t *testing.T) {
	k := func(mul int64) kernels { return kernels{mul} }
	good := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100, Kernel: k(3)},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 50, Kernel: k(1)},
		{ID: 2, Parent: 0, Name: "b", Start: 50, End: 99, Kernel: k(2)},
	}
	if share, err := checkSpans(good, k(3)); err != nil || math.Abs(share-0.02) > 1e-9 {
		t.Errorf("good tree: share %v, err %v", share, err)
	}
	if _, err := checkSpans(good, k(4)); err == nil {
		t.Error("registry mismatch accepted")
	}
	overlap := append([]span(nil), good...)
	overlap[2].Start = 40
	if _, err := checkSpans(overlap, k(3)); err == nil {
		t.Error("overlapping siblings accepted")
	}
	glue := append([]span(nil), good...)
	glue[0].Kernel = k(4)
	if _, err := checkSpans(glue, k(4)); err == nil {
		t.Error("kernel work outside the children accepted")
	}
	gap := append([]span(nil), good...)
	gap[2].End = 60
	if _, err := checkSpans(gap, k(3)); err == nil {
		t.Error("parent with 41% self time accepted")
	}
}

// TestSmoke runs every workload end to end and traced on tiny graphs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	scales := map[string]float64{"sweep-pathways": 0.02, "hier-rw": 0.004, "hot-mixed": 0.1}
	for _, base := range workloads {
		w := *base
		w.scale = scales[w.name]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			g, err := w.generate()
			if err != nil {
				t.Fatal(err)
			}
			tables := map[lang]*answers{}
			for _, l := range w.langs {
				if tables[l], err = loadAnswers(dir, g, l); err != nil {
					t.Fatal(err)
				}
			}
			res, report, err := endToEnd(&w, dir, 1, time.Second, 3, tables)
			if err != nil || !res.Correct || res.Attempted == 0 {
				t.Fatalf("end to end: %v %+v %v", err, res, report)
			}
			for _, m := range []string{"read_p50_ms", "read_qps", "write_p50_ms", "setup_s", "heap_live_mb"} {
				if v := res.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s = %v", m, v)
				}
			}
			res, report, err = layers(&w, dir, 1, 2*time.Second, tables, dir+"/trace.json")
			if err != nil || !res.Correct {
				t.Fatalf("traced: %v %+v %v", err, res, report)
			}
			if v := res.Metrics["gdb.query_us"].Value; !(v > 0) {
				t.Errorf("gdb.query_us = %v", v)
			}
		})
	}
}
