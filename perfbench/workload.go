package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"mscfpq/internal/dataset"
	"mscfpq/internal/graph"
)

// lang names the path language a read asks for; each has its own
// oracle table.
type lang int

const (
	langG1   lang = iota // the paper's same-generation grammar G1 as a PATH PATTERN
	langPlus             // the inline regular pattern [:subClassOf]+
)

func (l lang) String() string {
	if l == langPlus {
		return "subClassOf+"
	}
	return "G1"
}

// op is one GRAPH.QUERY statement of a client's schedule.
type op struct {
	client, seq int
	write       bool
	query       string
	sources     []int // read sources, vertices of the initial graph
	lang        lang
	count       bool // RETURN count(*) instead of RETURN v, to
}

// key identifies the op across runs of the same seed.
func (o op) key() string { return strconv.Itoa(o.client) + "/" + strconv.Itoa(o.seq) }

// stream yields a client's ops in schedule order, forever.
type stream func() op

// workload is one traffic mix against one generated graph. README.md
// gives the reason for each.
type workload struct {
	name    string
	dataset string
	scale   float64
	clients int
	durable bool
	langs   []lang // oracle tables the replies are checked against
	// heapAt is the number of ops client 0 completes before the live
	// heap is sampled, so the sample sits at the same point of the
	// schedule however fast the program runs.
	heapAt int
	// sideEvery, if not 0, gives a workload whose schedule has no
	// writes a write latency too: one CREATE after every sideEvery reads,
	// sent to a second set-up of the graph (see sideWriter).
	sideEvery int
	// roundOps, if not 0, splits the measured window into rounds of that
	// many ops, summed over the clients, each on a fresh set-up: every
	// CREATE adds two vertices, and without rounds a faster program
	// would be handed a bigger graph for the rest of its run.
	roundOps int
	// streams builds the per-client schedules for a seed over an
	// initial graph of n vertices.
	streams func(seed int64, n int) []stream
}

// graphName is the name the workload's graph is served under.
func (w *workload) graphName() string { return w.dataset }

// generate builds the workload's initial graph.
func (w *workload) generate() (*graph.Graph, error) {
	spec, err := dataset.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(dataset.Scaled(spec, w.scale)), nil
}

const writeQuery = "CREATE (:Class)-[:subClassOf]->(:Class)"

// g1Decl declares G1 under the nonterminal name:
// S -> subClassOf_r S subClassOf | type_r S type | subClassOf_r subClassOf | type_r type.
func g1Decl(name string) string {
	return fmt.Sprintf("PATH PATTERN %[1]s = ()-/ [<:subClassOf ~%[1]s :subClassOf] | [<:type ~%[1]s :type] | [<:subClassOf :subClassOf] | [<:type :type] /->()", name)
}

func idList(src []int) string {
	parts := make([]string, len(src))
	for i, s := range src {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ", ")
}

// g1Read is a G1 PATH PATTERN read from the sources.
func g1Read(name string, src []int, count bool) string {
	ret := "v, to"
	if count {
		ret = "count(*)"
	}
	return fmt.Sprintf("%s MATCH (v)-/ ~%s /->(to) WHERE id(v) IN [%s] RETURN %s", g1Decl(name), name, idList(src), ret)
}

// plusRead is the inline regular read, evaluated by the algebra
// closure with no index.
func plusRead(src []int) string {
	return fmt.Sprintf("MATCH (v)-/ [:subClassOf]+ /->(to) WHERE id(v) IN [%s] RETURN v, to", idList(src))
}

// clientRand derives a client's generator from the workload seed.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7_919 + 1))
}

var workloads = []*workload{
	{
		name:    "sweep-pathways",
		dataset: "pathways", scale: 1, clients: 1,
		langs:  []lang{langG1},
		heapAt: 150, sideEvery: 2,
		streams: func(seed int64, n int) []stream {
			return []stream{sweepStream(seed, n, 10)}
		},
	},
	{
		name:    "hier-rw",
		dataset: "go-hierarchy", scale: 0.02, clients: 1,
		langs:  []lang{langG1},
		heapAt: 60,
		streams: func(seed int64, n int) []stream {
			return []stream{hierStream(seed, n)}
		},
	},
	{
		name:    "hot-mixed",
		dataset: "core", scale: 1, clients: 2, durable: true,
		langs:  []lang{langG1, langPlus},
		heapAt: 400, roundOps: 1000,
		streams: func(seed int64, n int) []stream {
			cat := hotCatalogue(n)
			return []stream{hotStream(seed, 0, cat), hotStream(seed, 1, cat)}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// sweepStream reads disjoint chunks of a seeded permutation of the
// initial vertices. Each full pass declares G1 under a fresh
// nonterminal name, so every pass starts from a cold index and the
// workload stays the same however many passes a run completes.
func sweepStream(seed int64, n, chunk int) stream {
	rng := clientRand(seed, 0)
	var perm []int
	pass, pos, seq := -1, 0, 0
	return func() op {
		if pos >= len(perm) {
			perm = rng.Perm(n)
			pass++
			pos = 0
		}
		end := min(pos+chunk, len(perm))
		src := perm[pos:end]
		pos = end
		name := "S"
		if pass > 0 {
			name = "S" + strconv.Itoa(pass)
		}
		o := op{seq: seq, query: g1Read(name, src, false), sources: src, lang: langG1}
		seq++
		return o
	}
}

// hierStream issues G1 count(*) reads from 10 sources in cycles of
// five reads and three CREATEs. Three writes in a row time three times
// as many CREATEs as one would, at the same read cost: the read after
// them warm-starts the index once, from the version it last saw. Sources are dealt from successive seeded permutations of the
// initial vertices, so every run draws from the same population in
// nearly equal shares: drawn with replacement, the few costly sources a
// seed happened to pick moved read_p50_ms by 10% between seeds, against
// 1% between runs of one seed.
func hierStream(seed int64, n int) stream {
	rng := clientRand(seed, 0)
	var perm []int
	seq := 0
	return func() op {
		o := op{seq: seq}
		seq++
		if o.seq%8 >= 5 {
			o.write, o.query = true, writeQuery
			return o
		}
		o.sources = make([]int, 10)
		for i := range o.sources {
			if len(perm) == 0 {
				perm = rng.Perm(n)
			}
			o.sources[i], perm = perm[0], perm[1:]
		}
		o.lang, o.count = langG1, true
		o.query = g1Read("S", o.sources, true)
		return o
	}
}

// hotCatalogueSize is the number of five-source sets hot-mixed reads
// are drawn from.
const hotCatalogueSize = 64

// hotCatalogueSeed draws the catalogue. The catalogue is part of the
// workload, the same for every run seed: a seed reorders the reads and
// their mix, but does not change which source sets are hot, so the cost
// of a run does not hinge on what its few hottest sets happen to be.
const hotCatalogueSeed = 1_323_064

// hotCatalogue draws the fixed catalogue of five-source sets both
// hot-mixed clients share.
func hotCatalogue(n int) [][]int {
	rng := rand.New(rand.NewSource(hotCatalogueSeed))
	cat := make([][]int, hotCatalogueSize)
	for i := range cat {
		cat[i] = rng.Perm(n)[:5]
	}
	return cat
}

// hotStream picks catalogue sets by Zipf(s=1.1) rank; 3 reads in 4 are
// G1 PATH PATTERN queries, 1 in 4 the inline closure. Every 20th op is
// a CREATE.
func hotStream(seed int64, client int, cat [][]int) stream {
	rng := clientRand(seed, client)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(cat)-1))
	seq := 0
	return func() op {
		o := op{client: client, seq: seq}
		seq++
		if o.seq%20 == 19 {
			o.write, o.query = true, writeQuery
			return o
		}
		o.sources = cat[zipf.Uint64()]
		if rng.Intn(4) == 3 {
			o.lang, o.query = langPlus, plusRead(o.sources)
		} else {
			o.lang, o.query = langG1, g1Read("S", o.sources, false)
		}
		return o
	}
}
