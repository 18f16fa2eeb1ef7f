package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
	"mscfpq/internal/resp"
)

// servingPolicy is gsql-server's default policy: a 64 MiB result
// cache, no timeout, no work budget, no batch window.
var servingPolicy = gdb.Policy{CacheMaxBytes: 64 << 20}

// stack is one database behind one RESP server on a loopback port.
type stack struct {
	w      *workload
	db     *gdb.DB
	srv    *resp.Server
	addr   string
	dir    string // data directory of a durable database
	served chan error
	n0, e0 int // initial vertex and edge counts
}

// dirSeq keeps data directories of one process distinct.
var dirSeq atomic.Int64

// openDB builds the workload's database: a generated graph in memory,
// or, for a durable workload, the graph saved into a fresh data
// directory so it survives a reopen.
func openDB(w *workload, stateDir string) (*gdb.DB, string, *graph.Graph, error) {
	g, err := w.generate()
	if err != nil {
		return nil, "", nil, err
	}
	if !w.durable {
		db := gdb.New()
		db.AddGraph(w.graphName(), g)
		db.SetPolicy(servingPolicy)
		return db, "", g, nil
	}
	dir := filepath.Join(stateDir, "data", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), dirSeq.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", nil, err
	}
	db, err := gdb.Open(dir)
	if err != nil {
		return nil, "", nil, err
	}
	db.AddGraph(w.graphName(), g)
	db.SetPolicy(servingPolicy)
	if err := db.Save(); err != nil {
		//lint:ignore errdrop the failed save is the error to report
		db.Close()
		return nil, "", nil, err
	}
	return db, dir, g, nil
}

// setup generates the graph, opens the database and starts a server
// listening on a loopback port: everything setup_s times.
func setup(w *workload, stateDir string) (*stack, error) {
	db, dir, g, err := openDB(w, stateDir)
	if err != nil {
		return nil, err
	}
	srv := resp.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		//lint:ignore errdrop the failed listen is the error to report
		db.Close()
		return nil, err
	}
	s := &stack{w: w, db: db, srv: srv, addr: addr.String(), dir: dir, served: make(chan error, 1),
		n0: g.NumVertices(), e0: g.NumEdges()}
	go func() { s.served <- srv.Serve() }()
	return s, nil
}

// stop drains the server and detaches the database; the data
// directory stays until remove.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *stack) remove() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// counts returns the current vertex and edge counts of the graph.
func counts(db *gdb.DB, name string) (int, int, error) {
	st, err := db.Get(name)
	if err != nil {
		return 0, 0, err
	}
	g := st.Snapshot().Graph()
	return g.NumVertices(), g.NumEdges(), nil
}

// checkWrites verifies that every acknowledged CREATE is in the graph
// (two vertices and one edge each) and, for a durable database, that
// it is still there after closing and reopening the data directory.
// It stops the stack.
func (s *stack) checkWrites(acked int) error {
	wantV, wantE := s.n0+2*acked, s.e0+acked
	v, e, err := counts(s.db, s.w.graphName())
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if v != wantV || e != wantE {
		return fmt.Errorf("live graph has %d vertices, %d edges; want %d, %d after %d acknowledged writes", v, e, wantV, wantE, acked)
	}
	if s.dir == "" {
		return nil
	}
	db, err := gdb.Open(s.dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	//lint:ignore errdrop the reopened database is only read
	defer db.Close()
	v, e, err = counts(db, s.w.graphName())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if v != wantV || e != wantE {
		return fmt.Errorf("reopened graph has %d vertices, %d edges; want %d, %d after %d acknowledged writes", v, e, wantV, wantE, acked)
	}
	return nil
}

// decodeReply unpacks a GRAPH.QUERY reply into its rows and statistics.
func decodeReply(v resp.Value) ([][]int64, []string, error) {
	if v.Kind != resp.Array || len(v.Array) != 3 {
		return nil, nil, errors.New("malformed GRAPH.QUERY reply")
	}
	rows := make([][]int64, 0, len(v.Array[1].Array))
	for _, row := range v.Array[1].Array {
		cells := make([]int64, len(row.Array))
		for i, c := range row.Array {
			if c.Kind != resp.Integer {
				return nil, nil, errors.New("non-integer result cell")
			}
			cells[i] = c.Int
		}
		rows = append(rows, cells)
	}
	stats := make([]string, len(v.Array[2].Array))
	for i, s := range v.Array[2].Array {
		stats[i] = s.Str
	}
	return rows, stats, nil
}

// checkWriteStats verifies a CREATE's acknowledgement.
func checkWriteStats(o op, stats []string) error {
	if len(stats) < 2 || stats[0] != "Nodes created: 2" || stats[1] != "Relationships created: 1" {
		return fmt.Errorf("op %s: CREATE acknowledged with %v", o.key(), stats)
	}
	return nil
}

// outcome is what one client saw during a run.
type outcome struct {
	readMS, writeMS []float64
	attempted       int
	failed          int // errors, wrong replies
	acked           int // acknowledged writes
	digests         map[string]uint64
	errs            []error
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err)
	}
}

// heapSample takes the live heap once every client has completed `at`
// ops: clients wait for each other there, so no query is in flight
// while the heap is measured. A client whose run ends first arrives at
// its end instead, and the sample is marked late.
type heapSample struct {
	at, clients int
	mu          sync.Mutex
	arrived     int
	late        bool
	done        chan struct{}
	mb          float64
	pause       time.Duration // spent collecting and measuring
}

func newHeapSample(at, clients int) *heapSample {
	return &heapSample{at: at, clients: clients, done: make(chan struct{}), mb: math.NaN()}
}

func (h *heapSample) arrive(late bool) {
	h.mu.Lock()
	h.arrived++
	h.late = h.late || late
	last := h.arrived == h.clients
	h.mu.Unlock()
	if !last {
		<-h.done
		return
	}
	t := time.Now()
	h.mb = liveHeapMB()
	h.pause = time.Since(t)
	close(h.done)
}

// runUntraced drives the workload's clients closed-loop until the
// deadline or, with limit > 0, until the clients together have sent
// limit ops: each client sends its next op only after the previous
// reply. Replies are checked against the oracle outside the timed
// window. heap, if not nil, is sampled along the way, and side, if not
// nil, writes after every sideEvery reads of the first client; the time
// these take is not part of the returned wall time.
func runUntraced(s *stack, streams []stream, tables map[lang]*answers, d time.Duration, limit int, heap *heapSample, side *sideWriter) ([]*outcome, time.Duration, error) {
	clients := make([]*resp.Client, len(streams))
	for i := range clients {
		c, err := resp.Dial(s.addr)
		if err != nil {
			for _, c := range clients[:i] {
				//lint:ignore errdrop the failed dial is the error to report
				c.Close()
			}
			return nil, 0, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			//lint:ignore errdrop every reply was read and checked before the close
			c.Close()
		}
	}()
	outs := make([]*outcome, len(streams))
	// budget counts the ops the clients may still send; without a
	// limit it never runs out.
	var budget atomic.Int64
	budget.Store(math.MaxInt64)
	if limit > 0 {
		budget.Store(int64(limit))
	}
	var pause0 time.Duration
	if side != nil {
		pause0 = side.pause
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		outs[i] = &outcome{digests: map[string]uint64{}}
		wg.Add(1)
		sw := side
		if i > 0 {
			sw = nil
		}
		go func(i int) {
			defer wg.Done()
			clientLoop(s, clients[i], streams[i], tables, start.Add(d), &budget, outs[i], heap, sw)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if heap != nil {
		wall -= heap.pause
	}
	if side != nil {
		wall -= side.pause - pause0
	}
	return outs, wall, nil
}

func clientLoop(s *stack, c *resp.Client, next stream, tables map[lang]*answers, deadline time.Time, budget *atomic.Int64, out *outcome, heap *heapSample, side *sideWriter) {
	graphName := s.w.graphName()
	sampled := heap == nil
	reads := 0
	for n := 1; time.Now().Before(deadline) && budget.Add(-1) >= 0; n++ {
		o := next()
		out.attempted++
		t0 := time.Now()
		v, err := c.Do("GRAPH.QUERY", graphName, o.query)
		lat := time.Since(t0)
		if err == nil {
			err = recordReply(o, v, tables, ms(lat), out)
		}
		if err != nil {
			out.fail(err)
		}
		if !o.write {
			reads++
		}
		if side != nil && !o.write && reads%s.w.sideEvery == 0 {
			side.write()
		}
		if !sampled && n == heap.at {
			heap.arrive(false)
			sampled = true
		}
	}
	if !sampled {
		heap.arrive(true)
	}
}

// sideWriter gives a workload whose schedule has no writes a write
// latency: after every sideEvery reads, it sends one CREATE to a second
// set-up of the same graph on its own server. The writes are timed
// throughout the run, as the reads are, and the store the reads use
// never changes.
type sideWriter struct {
	s     *stack
	c     *resp.Client
	out   *outcome
	seq   int
	pause time.Duration // spent in writes, not part of the measured wall time
}

func newSideWriter(w *workload, stateDir string) (*sideWriter, error) {
	s, err := setup(w, stateDir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	c, err := resp.Dial(s.addr)
	if err != nil {
		s.stop()
		s.remove()
		return nil, err
	}
	return &sideWriter{s: s, c: c, out: &outcome{digests: map[string]uint64{}}}, nil
}

func (sw *sideWriter) write() {
	t := time.Now()
	defer func() { sw.pause += time.Since(t) }()
	o := op{client: -1, seq: sw.seq, write: true, query: writeQuery}
	sw.seq++
	sw.out.attempted++
	t0 := time.Now()
	v, err := sw.c.Do("GRAPH.QUERY", sw.s.w.graphName(), o.query)
	lat := time.Since(t0)
	if err == nil {
		err = recordReply(o, v, nil, ms(lat), sw.out)
	}
	if err != nil {
		sw.out.fail(err)
	}
}

// close checks the acknowledged writes and removes the side stack.
func (sw *sideWriter) close() {
	if err := sw.c.Close(); err != nil {
		sw.out.fail(err)
	}
	if err := sw.s.checkWrites(sw.out.acked); err != nil {
		sw.out.fail(fmt.Errorf("acknowledged side writes: %w", err))
	}
	sw.s.remove()
}

// recordReply checks one reply and files its latency.
func recordReply(o op, v resp.Value, tables map[lang]*answers, lat float64, out *outcome) error {
	rows, stats, err := decodeReply(v)
	if err != nil {
		return fmt.Errorf("op %s: %w", o.key(), err)
	}
	if o.write {
		if err := checkWriteStats(o, stats); err != nil {
			return err
		}
		out.acked++
		out.writeMS = append(out.writeMS, lat)
		return nil
	}
	if err := checkReply(o, rows, tables[o.lang]); err != nil {
		return err
	}
	out.readMS = append(out.readMS, lat)
	out.digests[o.key()] = digest(rows)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeapMB collects garbage and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
