package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
	"mscfpq/internal/rpq"
)

// answers is the reference answer of one path language on one graph,
// per initial vertex: how many targets it reaches and a hash of the
// sorted target list. Writes only add disconnected components, so the
// table holds at every version for sources of the initial graph.
type answers struct {
	Key   string   `json:"key"`
	Count []int    `json:"count"`
	Hash  []uint64 `json:"hash"`
}

// graphKey fingerprints a graph and a language, naming the cached table.
func graphKey(g *graph.Graph, l lang) string {
	var lines []string
	g.Edges(func(src int, label string, dst int) bool {
		lines = append(lines, fmt.Sprintf("%d %s %d", src, label, dst))
		return true
	})
	for _, label := range g.VertexLabels() {
		for _, v := range g.VertexSet(label).Ints() {
			lines = append(lines, fmt.Sprintf("v %d %s", v, label))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", l, g.NumVertices())
	for _, s := range lines {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// computeAnswers runs internal/oracle, which shares no code with the
// production kernels.
func computeAnswers(g *graph.Graph, l lang) (*answers, error) {
	var pairs [][2]int
	switch l {
	case langG1:
		w, err := grammar.ToWCNF(grammar.G1())
		if err != nil {
			return nil, err
		}
		pairs = oracle.CFPQ(g, w).StartPairs()
	case langPlus:
		nfa, err := rpq.CompileRegex("subClassOf+")
		if err != nil {
			return nil, err
		}
		all := make([]int, g.NumVertices())
		for i := range all {
			all[i] = i
		}
		pairs = oracle.RPQ(g, nfa, all)
	default:
		return nil, fmt.Errorf("no oracle for language %v", l)
	}
	return tabulate(g.NumVertices(), pairs), nil
}

// tabulate sorts (source, target) pairs and folds them into
// per-source counts and target hashes.
func tabulate(n int, pairs [][2]int) *answers {
	oracle.SortPairs(pairs)
	a := &answers{Count: make([]int, n), Hash: make([]uint64, n)}
	for i := 0; i < len(pairs); {
		j := i
		var targets []int64
		for ; j < len(pairs) && pairs[j][0] == pairs[i][0]; j++ {
			targets = append(targets, int64(pairs[j][1]))
		}
		s := pairs[i][0]
		a.Count[s] = len(targets)
		a.Hash[s] = hashInts(targets)
		i = j
	}
	return a
}

// hashInts is FNV-1a over the values in order.
func hashInts(xs []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// loadAnswers returns the oracle table for (g, l), computing and
// caching it under dir on first use. The cache is keyed by the graph's
// full contents, so a changed generator can never reuse a stale table.
func loadAnswers(dir string, g *graph.Graph, l lang) (*answers, error) {
	key := graphKey(g, l)
	path := filepath.Join(dir, key[:24]+".json")
	if b, err := os.ReadFile(path); err == nil {
		var a answers
		if err := json.Unmarshal(b, &a); err == nil && a.Key == key && len(a.Count) == g.NumVertices() {
			return &a, nil
		}
	}
	a, err := computeAnswers(g, l)
	if err != nil {
		return nil, err
	}
	a.Key = key
	b, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, err
	}
	return a, nil
}

// checkReply verifies a read's rows against the oracle: count(*) reads
// must return the summed target counts of the distinct sources; v, to
// reads must return, per source, exactly the oracle's target set, and
// no row from any other vertex.
func checkReply(o op, rows [][]int64, a *answers) error {
	distinct := map[int]bool{}
	for _, s := range o.sources {
		distinct[s] = true
	}
	if o.count {
		want := 0
		for s := range distinct {
			want += a.Count[s]
		}
		if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != int64(want) {
			return fmt.Errorf("op %s: count reply %v, want %d", o.key(), rows, want)
		}
		return nil
	}
	bySrc := map[int64][]int64{}
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("op %s: row %v has %d columns, want 2", o.key(), r, len(r))
		}
		bySrc[r[0]] = append(bySrc[r[0]], r[1])
	}
	for v := range bySrc {
		if v < 0 || !distinct[int(v)] {
			return fmt.Errorf("op %s: row from vertex %d outside the sources", o.key(), v)
		}
	}
	for s := range distinct {
		ts := bySrc[int64(s)]
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		if len(ts) != a.Count[s] || (len(ts) > 0 && hashInts(ts) != a.Hash[s]) {
			return fmt.Errorf("op %s: source %d has %d targets, oracle %d (or a different set)", o.key(), s, len(ts), a.Count[s])
		}
	}
	return nil
}

// digest is an order-independent fingerprint of a reply's rows, used
// to compare the traced and untraced runs op by op.
func digest(rows [][]int64) uint64 {
	sorted := append([][]int64(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	var flat []int64
	for _, r := range sorted {
		flat = append(flat, int64(len(r)))
		flat = append(flat, r...)
	}
	return hashInts(flat)
}
