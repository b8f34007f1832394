package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"fastppr/internal/graph"
	"fastppr/internal/persist"
	"fastppr/internal/salsa"
	"fastppr/internal/serve"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

// runResult is what one run of one workload measured.
type runResult struct {
	Metrics   map[string]float64
	Attempted int64
	Failed    int64
	Failures  []string // breached correctness gates, empty on a correct run
	tr        *tracer
}

// streamStats is what the timed phase of a stream consumed.
type streamStats struct {
	events    int64
	seconds   float64
	calls     socialstore.CallSnapshot // social store calls made by the update path
	mutations int64                    // walk-store epoch delta
	span      int32                    // the traced run's "stream" span
	// durable_stream
	walBytes, walRecords int64
	// serve_storm
	queries *queryStats
	late    []time.Duration
	served  serve.Stats // serving counters over the counted part of the storm
}

func (st streamStats) rate() float64 { return ratio(float64(st.events), st.seconds) }

// queryStats is the read side of a run: one latency per query plus the
// Theorem 8 accounting of the personalized ones.
type queryStats struct {
	latencyMS         []float64
	missMS            []float64 // serve_storm: the queries that were not cache hits
	storeCalls, bound float64   // summed over queries
	stitched          float64
}

func (q *queryStats) merge(o *queryStats) {
	q.latencyMS = append(q.latencyMS, o.latencyMS...)
	q.missMS = append(q.missMS, o.missMS...)
	q.storeCalls += o.storeCalls
	q.bound += o.bound
	q.stitched += o.stitched
}

// mark is a point-in-time reading of the counters a timed phase is a delta of.
type mark struct {
	calls socialstore.CallSnapshot
	epoch int64
	at    time.Time
}

func (s *system) mark() mark {
	return mark{calls: s.soc.Snapshot(), epoch: s.store().Epoch(), at: time.Now()}
}

func (s *system) since(m mark, events int) streamStats {
	now := s.mark()
	return streamStats{
		events:    int64(events),
		seconds:   now.at.Sub(m.at).Seconds(),
		calls:     now.calls.Sub(m.calls),
		mutations: now.epoch - m.epoch,
	}
}

// eventSpan names the per-event span of a maintainer call.
func eventSpan(layer string, del bool) string {
	if del {
		return layer + ".deletion"
	}
	return layer + ".arrival"
}

// streamBatch is the timed phase of pr_churn, pr_churn_par and salsa_churn:
// the warm-up head applied untimed, a forced GC, then the rest of the stream.
// Untraced it is one ApplyEvents call. Traced, a serialized maintainer takes
// the events one by one under a span each (the same work: serial ApplyEvents
// is that loop), and the parallel one takes sixteen ApplyEvents chunks so
// its claiming and straggler sweep stay inside the spans.
func streamBatch(s *system, in *inputs, sz sizes, parallel bool, tr *tracer) streamStats {
	w := in.warm(sz.WarmFrac)
	s.applyEvents(in.events[:w])
	runtime.GC()
	timed := in.events[w:]
	m := s.mark()
	sp := tr.begin("stream")
	switch {
	case tr == nil:
		s.applyEvents(timed)
	case parallel:
		step := (len(timed) + 15) / 16
		for lo := 0; lo < len(timed); lo += step {
			c := tr.begin("pagerank.apply_events")
			s.applyEvents(timed[lo:min(lo+step, len(timed))])
			tr.end(c)
		}
	default:
		arrival, deletion := eventSpan(s.layer(), false), eventSpan(s.layer(), true)
		for _, ev := range timed {
			name := arrival
			if ev.Del {
				name = deletion
			}
			c := tr.begin(name)
			s.applyOne(ev)
			tr.end(c)
		}
	}
	st := s.since(m, len(timed))
	tr.end(sp)
	st.span = sp
	return st
}

// streamDurable is durable_stream's timed phase: every event applied alone,
// its deletion marker journaled, and a commit marker carrying the update RNG
// appended before the next one — the transactional cadence bitwise recovery
// needs — with a checkpoint every CheckpointEvery events. The last stretch is
// never checkpointed, so the cold open that follows has a WAL to replay.
func streamDurable(s *system, in *inputs, sz sizes, tr *tracer) (streamStats, error) {
	w := in.warm(sz.WarmFrac)
	var m mark
	var closedBytes, closedRecs, bytes0, recs0 int64
	wal := func() (int64, int64) {
		st := s.pm.Stats()
		return closedBytes + st.WALBytes, closedRecs + st.WALRecords
	}
	sp := int32(-1)
	for i, ev := range in.events {
		if i == w {
			runtime.GC()
			bytes0, recs0 = wal()
			m = s.mark()
			sp = tr.begin("stream")
		}
		c := tr.begin(eventSpan("pagerank", ev.Del))
		s.applyOne(ev)
		tr.end(c)
		state := s.pr.UpdateRNGState()
		c = tr.begin("persist.commit")
		var err error
		if ev.Del {
			err = s.pm.LogRemoveEdge(ev.Edge.From, ev.Edge.To)
		}
		if err == nil {
			err = s.pm.Commit(int64(i), state)
		}
		tr.end(c)
		if err != nil {
			return streamStats{}, fmt.Errorf("commit %d: %w", i, err)
		}
		if (i+1)%sz.CheckpointEvery == 0 && i+1 < len(in.events) {
			closedBytes, closedRecs = wal()
			c := tr.begin("persist.checkpoint")
			err := s.pm.Checkpoint()
			tr.end(c)
			if err != nil {
				return streamStats{}, fmt.Errorf("checkpoint at %d: %w", i+1, err)
			}
		}
	}
	st := s.since(m, len(in.events)-w)
	tr.end(sp)
	st.span = sp
	b, r := wal()
	st.walBytes, st.walRecords = b-bytes0, r-recs0
	return st, nil
}

// streamServe is serve_storm: for the run's fixed duration one writer
// goroutine applies batches of uniform arrivals back to back (closed loop)
// while this goroutine serves personalized top-100 queries on a fixed
// schedule (open loop, latency from each query's due time). The first
// WarmFrac of the storm fills the cache and is not counted on either side.
// A fixed duration and a fixed query rate keep the interference the same on
// every commit; what varies is how many arrivals the writer gets through.
func streamServe(s *system, in *inputs, sz sizes, seed uint64, tr *tracer) streamStats {
	warm := time.Duration(sz.ServeSeconds * sz.WarmFrac * float64(time.Second))
	total := warm + time.Duration(sz.ServeSeconds*float64(time.Second))
	interval := time.Second / time.Duration(sz.ServeQPS)
	warmQueries := int(warm / interval)

	runtime.GC()
	sp := tr.begin("stream")
	start := time.Now()
	var (
		wg  sync.WaitGroup
		wtr = tr.fork()
		wst streamStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := pcg(seed, saltWriter)
		batch := make([]graph.Edge, sz.ServeBatch)
		var m mark
		counting, applied := false, 0
		for {
			el := time.Since(start)
			if el >= total {
				wst = s.since(m, applied)
				return
			}
			if !counting && el >= warm {
				counting, applied, m = true, 0, s.mark()
			}
			uniformBatch(batch, in.nodes, rng)
			c := wtr.begin("serve.apply_edges")
			s.srv.ApplyEdges(batch)
			wtr.end(c)
			applied += len(batch)
		}
	}()

	qs := &queryStats{}
	hit := make([]bool, len(in.sources))
	var served0 serve.Stats
	latency, late := openLoop(start, interval, len(in.sources), func(i int) {
		c := tr.begin("serve.personalized_topk")
		_, res := s.srv.PersonalizedTopK(in.sources[i], 100)
		tr.end(c)
		if i < warmQueries {
			served0 = s.srv.Stats()
			return
		}
		hit[i] = res.Hit
		q := res.Query.Stats()
		qs.storeCalls += float64(res.StoreCalls)
		qs.bound += q.Theorem8Bound
		if res.StoreCalls > 0 {
			qs.stitched += float64(q.StitchedSegments)
		}
	})
	wg.Wait()
	st := wst
	tr.join(wtr)
	tr.end(sp)
	st.span = sp

	qs.latencyMS = millis(latency[warmQueries:])
	for i, ms := range qs.latencyMS {
		if !hit[warmQueries+i] {
			qs.missMS = append(qs.missMS, ms)
		}
	}
	// The social store's global counters saw the queries' reads too; what is
	// left after taking out the served queries' own tallies is the writer's.
	st.calls.Reads -= int64(qs.storeCalls)
	st.queries, st.late = qs, late[warmQueries:]
	end := s.srv.Stats()
	st.served = serve.Stats{
		Hits: end.Hits - served0.Hits, Misses: end.Misses - served0.Misses, Coalesced: end.Coalesced - served0.Coalesced,
		Raced: end.Raced - served0.Raced, Invalidated: end.Invalidated - served0.Invalidated, Evicted: end.Evicted - served0.Evicted,
		Entries: end.Entries,
	}
	return st
}

// queryPagerank is the read phase of the pagerank workloads: quiescent global
// TopK(100) reads off the maintained estimates.
func queryPagerank(s *system, n int, tr *tracer) (*queryStats, error) {
	qs := &queryStats{}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c := tr.begin("pagerank.topk")
		items := s.pr.TopK(100)
		tr.end(c)
		qs.latencyMS = append(qs.latencyMS, float64(time.Since(t0))/float64(time.Millisecond))
		if len(items) != 100 {
			return nil, fmt.Errorf("TopK(100) returned %d items", len(items))
		}
	}
	return qs, nil
}

// querySalsa is salsa_churn's read phase: uncached personalized top-100 from
// seed-drawn uniform sources with no writer running, so it times stitching
// and top-k selection with neither the cache nor lock pressure in the way.
func querySalsa(s *system, sources []graph.NodeID, tr *tracer) *queryStats {
	qs := &queryStats{}
	for _, src := range sources {
		t0 := time.Now()
		c := tr.begin("salsa.personalized")
		q := s.sa.Personalized(src)
		tr.end(c)
		c = tr.begin("topk.topk100")
		q.TopK(100)
		tr.end(c)
		qs.latencyMS = append(qs.latencyMS, float64(time.Since(t0))/float64(time.Millisecond))
		st := q.Stats()
		qs.storeCalls += float64(st.StoreCalls)
		qs.bound += st.Theorem8Bound
		qs.stitched += float64(st.StitchedSegments)
	}
	return qs
}

// sameServed reports whether a served query and a recompute on its recorded
// stream are bitwise identical: accounting and the full authority vector.
func sameServed(a, b *salsa.Query) bool {
	as, bs := a.Stats(), b.Stats()
	if as.Steps != bs.Steps || as.BareSteps != bs.BareSteps || as.StoreCalls != bs.StoreCalls ||
		as.StitchedSegments != bs.StitchedSegments || as.StitchedSteps != bs.StitchedSteps ||
		as.Stream != bs.Stream || as.StripeMask != bs.StripeMask {
		return false
	}
	am, bm := a.AuthorityAll(), b.AuthorityAll()
	if len(am) != len(bm) {
		return false
	}
	for v, x := range am {
		if bm[v] != x {
			return false
		}
	}
	return true
}

// repeatPass is serve_storm's post-storm gate: on the now quiescent store,
// each of the first distinct scheduled sources is served twice; the second
// must be a cache hit, cost no store call, and equal a fresh recompute on
// its recorded stream bit for bit. hitUS is the mean time of those hits: the
// cache's hit path with no queue in front of it.
func repeatPass(s *system, sources []graph.NodeID, want int) (served int, hitUS float64, failure string) {
	seen := map[graph.NodeID]bool{}
	var hits time.Duration
	for _, src := range sources {
		if served == want {
			break
		}
		if seen[src] {
			continue
		}
		seen[src] = true
		s.srv.Personalized(src)
		t0 := time.Now()
		again := s.srv.Personalized(src)
		hits += time.Since(t0)
		served += 2
		if !again.Hit || again.StoreCalls != 0 {
			return served, 0, fmt.Sprintf("serve: repeat of source %d on a quiescent store was not a free hit", src)
		}
		if !sameServed(again.Query, s.sa.PersonalizedStream(src, again.Stream)) {
			return served, 0, fmt.Sprintf("serve: cached result for source %d differs from recompute on stream %d", src, again.Stream)
		}
	}
	return served, ratio(float64(hits.Nanoseconds())/1e3, float64(served/2)), ""
}

func sameDump(a, b *walkstore.Dump) bool {
	if a.Epoch != b.Epoch || a.TotalVisits != b.TotalVisits || a.SidedTotals != b.SidedTotals || len(a.Segs) != len(b.Segs) {
		return false
	}
	for i := range a.Segs {
		x, y := &a.Segs[i], &b.Segs[i]
		if x.Live != y.Live || x.Side != y.Side || !slices.Equal(x.Path, y.Path) {
			return false
		}
	}
	return true
}

// recovery is durable_stream's restart: close the manager, reopen the
// directory cold (snapshot load, WAL replay, and the checkpoint Open ends
// with), and require the recovered store to dump equal to the live one.
type recovery struct {
	seconds    float64
	replayed   int
	snapshotMB float64
	failure    string
}

func recoverCold(s *system, sz sizes, tr *tracer) (recovery, error) {
	var r recovery
	if err := s.pm.Close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}
	s.pm = nil
	live, err := s.store().Dump()
	if err != nil {
		return r, fmt.Errorf("dump live store: %w", err)
	}
	t0 := time.Now()
	sp := tr.begin("persist.open")
	pm, walks, info, err := persist.Open(persist.Config{Dir: s.dir, Policy: persist.SyncEveryN, SyncEveryN: sz.SyncEveryN})
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("cold open: %w", err)
	}
	r.seconds = time.Since(t0).Seconds()
	r.replayed = info.Replayed
	r.snapshotMB = float64(pm.SnapshotBytes()) / (1 << 20)
	got, err := walks.Dump()
	if cerr := pm.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return r, fmt.Errorf("dump recovered store: %w", err)
	}
	if !sameDump(live, got) {
		r.failure = "persist: recovered store does not dump equal to the live one"
	}
	if info.Replayed == 0 {
		r.failure = "persist: cold open replayed no WAL record"
	}
	return r, nil
}

// readPhase is the read side of a pass, on the state its stream left. On
// serve_storm the reads ran beside the writer and came back with the stream.
func readPhase(workload string, s *system, in *inputs, n int, st streamStats, tr *tracer) (*queryStats, error) {
	switch workload {
	case "salsa_churn":
		return querySalsa(s, in.sources[:min(n, len(in.sources))], tr), nil
	case "serve_storm":
		return st.queries, nil
	}
	return queryPagerank(s, n, tr)
}

// finished is the part of a run after its last pass: memory, accuracy and
// the correctness gates.
type finished struct {
	heapMB   float64 // heap once the stream is consumed and its inputs released
	queries  *queryStats
	l1       float64
	recovery recovery
	repeats  int     // serve_storm: lookups of the post-storm repeat pass
	hitUS    float64 // and the mean time of its hits
	failures []string
}

// heapMB is HeapAlloc after forced collections: three of them, because a
// sync.Pool entry survives two and the walk store's pooled scratch can pin a
// superseded arena.
func heapMB() float64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func finish(workload string, s *system, in *inputs, sz sizes, queries *queryStats, tr *tracer) (finished, error) {
	f := finished{queries: queries}
	fail := func(format string, a ...any) { f.failures = append(f.failures, fmt.Sprintf(format, a...)) }

	if tr != nil { // only a traced run reports it
		in.release()
		f.heapMB = heapMB()
	}

	switch workload {
	case "durable_stream":
		var err error
		if f.recovery, err = recoverCold(s, sz, tr); err != nil {
			return f, err
		}
		if f.recovery.failure != "" {
			fail("%s", f.recovery.failure)
		}
	case "serve_storm":
		var msg string
		if f.repeats, f.hitUS, msg = repeatPass(s, in.sources, sz.ServeRepeatSources); msg != "" {
			fail("%s", msg)
		}
	}

	f.l1 = s.l1(tr)
	ceiling := sz.L1CeilingPR
	if s.sa != nil {
		ceiling = sz.L1CeilingSalsa
	}
	if f.l1 > ceiling {
		fail("l1_err %.4f above the ceiling %.4f", f.l1, ceiling)
	}

	sp := tr.begin("walkstore.validate")
	if err := s.store().Validate(); err != nil {
		fail("walkstore.Validate: %v", err)
	}
	if err := s.store().ValidateSteps(s.g.HasEdge); err != nil {
		fail("walkstore.ValidateSteps: %v", err)
	}
	tr.end(sp)

	c := s.counters()
	if c.SlowNoops != 0 {
		fail("%s: SlowNoops = %d, the fast path lost a reroute", s.layer(), c.SlowNoops)
	}
	if workload != "pr_churn_par" && c.DelMisses != 0 {
		fail("%s: DelMisses = %d on a serialized stream", s.layer(), c.DelMisses)
	}
	if q := f.queries; q.storeCalls > q.bound {
		fail("store calls per query %.1f above the Theorem 8 ceiling %.1f",
			ratio(q.storeCalls, float64(len(q.latencyMS))), ratio(q.bound, float64(len(q.latencyMS))))
	}
	return f, nil
}
