package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// stream runs the workload's timed phase on a set-up system.
func stream(workload string, s *system, in *inputs, sz sizes, seed uint64, tr *tracer) (streamStats, error) {
	switch workload {
	case "durable_stream":
		return streamDurable(s, in, sz, tr)
	case "serve_storm":
		return streamServe(s, in, sz, seed, tr), nil
	}
	return streamBatch(s, in, sz, workload == "pr_churn_par", tr), nil
}

// runOnce runs one workload once on fresh state. Untraced it measures the
// end-to-end metrics; traced it measures the per-layer ones, from an
// untraced pass (the overhead baseline), a traced pass on a second fresh
// system, and the layer probes on that system's final state.
func runOnce(workload string, sz sizes, seed uint64, trace bool, tmpRoot string) (*runResult, error) {
	if trace {
		// A traced run has one pass: its storm is as long as an untraced
		// run's three together, so that the query tail has its thousand
		// samples (the quiescent read phases take sz.TailReads).
		sz.ServeSeconds *= float64(sz.Passes)
	}
	t0 := time.Now()
	in := makeInputs(workload, sz, seed)
	inputS := time.Since(t0).Seconds()
	if !trace {
		return runEndToEnd(workload, sz, in, seed, tmpRoot)
	}
	return runTraced(workload, sz, in, seed, tmpRoot, inputS)
}

// runEndToEnd makes sz.Passes passes, each a fresh set-up followed by the
// whole stream and a read phase, and reports the median pass: the work of a
// pass is fixed by the seed, so the passes differ only by what else the
// machine was doing, and a burst that slows one of them does not move the
// median. live_heap_mb is what a set-up adds to the heap: the graph and the
// bootstrapped walk store with its index, before any stream has left garbage
// in the arena. Accuracy and the correctness gates are taken once, on the
// last pass's state.
func runEndToEnd(workload string, sz sizes, in *inputs, seed uint64, tmpRoot string) (*runResult, error) {
	var s *system
	defer func() {
		if s != nil {
			s.discard()
		}
	}()
	var setups, heaps, rates, calls, p50s []float64
	var events int64
	all := &queryStats{}
	for pass := 0; pass < sz.Passes; pass++ {
		if s != nil {
			s.discard()
			s = nil
		}
		base := heapMB() // the inputs; every pass starts from the same heap
		t0 := time.Now()
		var err error
		if s, err = setup(workload, sz, in, seed, tmpRoot, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, heapMB()-base)
		st, err := stream(workload, s, in, sz, seed, nil)
		if err != nil {
			return nil, err
		}
		rates = append(rates, st.rate())
		calls = append(calls, ratio(float64(st.calls.Reads+st.calls.Writes), float64(st.events)))
		events += st.events
		q, err := readPhase(workload, s, in, sz.Reads, st, nil)
		if err != nil {
			return nil, err
		}
		p50s = append(p50s, percentile(q.latencyMS, 50))
		all.merge(q)
	}
	f, err := finish(workload, s, in, sz, all, nil)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Metrics: map[string]float64{
			"setup_s":                median(setups),
			"updates_per_s":          median(rates),
			"store_calls_per_update": median(calls),
			"l1_err":                 f.l1,
			"query_p50_ms":           median(p50s),
			"live_heap_mb":           median(heaps),
		},
	}
	res.account(events, f)
	return res, nil
}

// account fills in the operation counts: every timed event and every query
// is one attempted operation, and a breached correctness gate fails them all.
func (r *runResult) account(events int64, f finished) {
	r.Attempted = events + int64(len(f.queries.latencyMS)) + int64(f.repeats)
	r.Failures = f.failures
	if len(r.Failures) > 0 {
		r.Failed = r.Attempted
	}
}

func runTraced(workload string, sz sizes, in *inputs, seed uint64, tmpRoot string, inputS float64) (*runResult, error) {
	// Pass A: the untraced pipeline, exactly as an end-to-end run streams it.
	untraced, err := streamFresh(workload, sz, in, seed, tmpRoot)
	if err != nil {
		return nil, err
	}

	// The comparison passes some layer metrics are a ratio against: the same
	// inputs through the serialized maintainer with no journal behind it.
	var reference streamStats
	if workload == "pr_churn_par" || workload == "durable_stream" {
		if reference, err = streamFresh("pr_churn", sz, in, seed, tmpRoot); err != nil {
			return nil, err
		}
	}

	// Pass B: fresh state again, every call into a layer under a span.
	tr := newTracer()
	root := tr.begin("run")
	s, err := setup(workload, sz, in, seed, tmpRoot, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.discard()
	st, err := stream(workload, s, in, sz, seed, tr)
	if err != nil {
		return nil, err
	}
	live, total := s.store().ArenaStats()
	reads, err := readPhase(workload, s, in, sz.TailReads, st, tr)
	if err != nil {
		return nil, err
	}
	f, err := finish(workload, s, in, sz, reads, tr)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	c := s.counters()
	events, arrivals, deletions := float64(st.events), float64(c.Arrivals), float64(c.Deletions)
	queries := float64(len(f.queries.latencyMS))

	m["gen.input_s"] = inputS
	m["gen.late_p99_ms"] = percentile(millis(st.late), supportedTail(len(st.late)))
	m["graph.build_s"] = seconds(tr.durations("graph.build"))
	m["socialstore.reads_per_update"] = ratio(float64(st.calls.Reads), events)
	m["socialstore.writes_per_update"] = ratio(float64(st.calls.Writes), events)
	m["walkstore.mutations_per_update"] = ratio(float64(st.mutations), events)
	m["runtime.heap_after_stream_mb"] = f.heapMB
	m["walkstore.garbage_ratio"] = ratio(float64(total-live), float64(total))
	m["walkstore.validate_s"] = seconds(tr.durations("walkstore.validate"))
	m["trace.overhead_pct"] = 100 * (1 - ratio(st.rate(), untraced.rate()))

	// Share of the stream's wall time spent inside update-path calls; the
	// open-loop queries beside serve_storm's writer are left out.
	m["trace.span_coverage_pct"] = 100 * ratio(tr.childSeconds(st.span, "serve.personalized_topk"), tr.spanSeconds(st.span))

	// The maintainer that ran: per-event spans and its own counters.
	arr, del := micros(tr.durations(s.layer()+".arrival")), micros(tr.durations(s.layer()+".deletion"))
	ly := map[string]float64{
		"bootstrap_s":                seconds(tr.durations(s.layer() + ".bootstrap")),
		"arrival_p50_us":             percentile(arr, 50),
		"arrival_p99_us":             percentile(arr, supportedTail(len(arr))),
		"deletion_p50_us":            percentile(del, 50),
		"deletion_p99_us":            percentile(del, supportedTail(len(del))),
		"skip_rate":                  c.skipRate(),
		"reroutes_per_arrival":       ratio(float64(c.Rerouted), arrivals),
		"revived_per_arrival":        ratio(float64(c.Revived), arrivals),
		"del_reroutes_per_deletion":  ratio(float64(c.DelRerouted), deletions),
		"del_truncated_per_deletion": ratio(float64(c.DelTruncated), deletions),
		"slow_noops":                 float64(c.SlowNoops),
		"del_misses":                 float64(c.DelMisses),
	}
	for name, v := range ly {
		m[s.layer()+"."+name] = v
	}
	// The read tail: the highest percentile with ten samples beyond it. It is
	// reported here and not end to end because beside a writer it is a queue
	// behind the slowest few queries and doubles from seed to seed.
	tail := supportedTail(len(f.queries.latencyMS))
	m["trace.query_tail_pct"] = tail
	switch {
	case s.pr != nil:
		m["pagerank.topk_ms"] = mean(f.queries.latencyMS)
		m["pagerank.topk_tail_ms"] = percentile(f.queries.latencyMS, tail)
	case s.srv != nil:
		m["serve.query_tail_ms"] = percentile(f.queries.latencyMS, tail)
	default:
		m["salsa.query_miss_ms"] = mean(f.queries.latencyMS)
		m["salsa.query_tail_ms"] = percentile(f.queries.latencyMS, tail)
	}
	if s.sa != nil {
		m["salsa.stitched_per_query"] = ratio(f.queries.stitched, queries)
		m["salsa.store_calls_per_query"] = ratio(f.queries.storeCalls, queries)
		m["salsa.theorem8_ratio"] = ratio(f.queries.storeCalls, f.queries.bound)
	}

	switch workload {
	case "pr_churn_par":
		m["pagerank.parallel_efficiency"] = ratio(untraced.rate(), reference.rate())
	case "durable_stream":
		commits := micros(tr.durations("persist.commit"))
		checkpoints := tr.durations("persist.checkpoint")
		m["persist.commit_p50_us"] = percentile(commits, 50)
		m["persist.commit_p99_us"] = percentile(commits, supportedTail(len(commits)))
		m["persist.checkpoint_s"] = ratio(seconds(checkpoints), float64(len(checkpoints)))
		m["persist.wal_records_per_update"] = ratio(float64(st.walRecords), events)
		m["persist.wal_bytes_per_update"] = ratio(float64(st.walBytes), events)
		m["persist.snapshot_mb"] = f.recovery.snapshotMB
		m["persist.replayed_records"] = float64(f.recovery.replayed)
		m["persist.recovery_s"] = f.recovery.seconds
		m["persist.journal_share"] = 1 - ratio(untraced.rate(), reference.rate())
	case "serve_storm":
		sv := st.served
		lookups := float64(sv.Hits + sv.Misses + sv.Coalesced)
		m["serve.hit_rate"] = sv.HitRate()
		m["serve.raced_share"] = ratio(float64(sv.Raced), float64(sv.Misses))
		m["serve.coalesced_share"] = ratio(float64(sv.Coalesced), lookups)
		m["serve.invalidated_share"] = ratio(float64(sv.Invalidated), lookups)
		m["serve.evictions"] = float64(sv.Evicted)
		m["serve.hit_us"] = f.hitUS
		m["serve.miss_ms"] = mean(f.queries.missMS)
	}

	if err := runProbes(s, in, sz, seed, tr, m); err != nil {
		return nil, err
	}
	tr.end(root)

	res := &runResult{Metrics: m, tr: tr}
	res.account(st.events, f)
	return res, nil
}

// streamFresh sets a system up, streams the workload through it untraced and
// throws it away: the comparison passes of a traced run.
func streamFresh(workload string, sz sizes, in *inputs, seed uint64, tmpRoot string) (streamStats, error) {
	runtime.GC()
	s, err := setup(workload, sz, in, seed, tmpRoot, nil)
	if err != nil {
		return streamStats{}, fmt.Errorf("setup: %w", err)
	}
	defer s.discard()
	return stream(workload, s, in, sz, seed, nil)
}

// emit picks the declared metrics out of a run's measurements. A layer the
// workload bypasses has no measurement and reads 0; an undeclared measurement
// or a missing end-to-end metric is a bug in this program.
func emit(declared []metricSpec, measured map[string]float64, perLayer bool) (map[string]float64, error) {
	out := map[string]float64{}
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
		v, ok := measured[d.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		out[d.Name] = v
	}
	var extra []string
	for name := range measured {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}
