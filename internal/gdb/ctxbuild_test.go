package gdb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
	"mscfpq/internal/plan"
)

// TestPathCtxBuildOutsideLock holds one path-context build open and
// checks that it blocks only the queries that need its result: a query
// with other declarations on the same graph completes, a same-key query
// cancelled while it waits returns context.Canceled, and once the build
// is released every same-key query shares that one build.
func TestPathCtxBuildOutsideLock(t *testing.T) {
	const blocked = `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`
	const other = `
		PATH PATTERN P = ()-/ [:a :b] /->()
		MATCH (v)-/ ~P /->(to)
		RETURN v, to`
	q, err := cypher.Parse(blocked)
	if err != nil {
		t.Fatal(err)
	}
	blockedKey := plan.CtxKey(q.PathPatterns)

	var mu sync.Mutex
	builds := map[string]int{}
	started := make(chan struct{})
	var startOnce sync.Once
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	orig := buildPathCtx
	t.Cleanup(func() { unblock(); buildPathCtx = orig })
	buildPathCtx = func(prev *plan.PathCtx, g *graph.Graph, pats []cypher.NamedPathPattern) (*plan.PathCtx, error) {
		key := plan.CtxKey(pats)
		mu.Lock()
		builds[key]++
		mu.Unlock()
		if key == blockedKey {
			startOnce.Do(func() { close(started) })
			<-release
		}
		return orig(prev, g, pats)
	}
	buildCount := func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		return builds[key]
	}

	db := New()
	seedPaperGraph(db, "D")
	s, err := db.Get("D")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		rows [][]int64
		err  error
	}
	query := func(ctx context.Context, src string) result {
		res, err := db.QueryContext(ctx, "D", src)
		if err != nil {
			return result{err: err}
		}
		out := append([][]int64(nil), res.Rows...)
		sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
		return result{rows: out}
	}

	first := make(chan result, 1)
	go func() { first <- query(context.Background(), blocked) }()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocked build never started")
	}

	// Another declaration set on the same graph is not held up.
	done := make(chan result, 1)
	go func() { done <- query(context.Background(), other) }()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("other declarations: %v", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query with other declarations waited on an unrelated build")
	}

	// A same-key query waits on the open build and leaves when its
	// context is cancelled. The sleep only makes it likely that the
	// query is already waiting; it must return context.Canceled either
	// way.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- query(ctx, blocked) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled waiter did not return while the build was blocked")
	}

	// Same-key queries that arrive while the build is open share it
	// (one arriving after the release hits the installed context, so
	// the build count holds either way).
	const waiters = 4
	shared := make(chan result, waiters)
	for i := 0; i < waiters; i++ {
		go func() { shared <- query(context.Background(), blocked) }()
	}
	time.Sleep(20 * time.Millisecond)
	unblock()

	r := <-first
	if r.err != nil {
		t.Fatalf("blocked query: %v", r.err)
	}
	for i := 0; i < waiters; i++ {
		w := <-shared
		if w.err != nil {
			t.Fatalf("waiter %d: %v", i, w.err)
		}
		if !reflect.DeepEqual(w.rows, r.rows) {
			t.Fatalf("waiter %d answered %v, the builder %v", i, w.rows, r.rows)
		}
	}
	if n := buildCount(blockedKey); n != 1 {
		t.Fatalf("%d builds for one key and version, want 1", n)
	}
	// The shared build was installed: the next query is a cache hit.
	hits := s.CtxCacheHits()
	if _, err := db.Query("D", blocked); err != nil {
		t.Fatal(err)
	}
	if got := s.CtxCacheHits(); got != hits+1 || buildCount(blockedKey) != 1 {
		t.Fatalf("after the shared build: hits %d → %d, builds %d", hits, got, buildCount(blockedKey))
	}
}
