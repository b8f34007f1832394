package main

import (
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(pinnedGOMAXPROCS)
	debug.SetGCPercent(pinnedGOGC)
	os.Exit(m.Run())
}

func mustSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeSizes(t *testing.T, spec benchSpec) sizes {
	t.Helper()
	sz, err := sizesFor("smoke", spec.RunSeconds, spec.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	return sz
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The tail percentile must leave at least ten samples beyond its rank.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1500, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		got := supportedTail(c.n)
		if got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 50 && c.n-rankOf(c.n, got) < 10 {
			t.Errorf("supportedTail(%d) = %g leaves %d samples beyond", c.n, got, c.n-rankOf(c.n, got))
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(3 1 2) = %g %g %g, want 1 2 3", q1, med, q3)
	}
}

// A stall in one call must be charged to every call that fell due while it
// lasted, and only to those.
func TestOpenLoopChargesStallToDueCalls(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 50 * time.Millisecond
		staller  = 5
		n        = 40
	)
	latency, late := openLoop(time.Now(), interval, n, func(i int) {
		if i == staller {
			time.Sleep(stall)
		}
	})
	if latency[staller] < stall {
		t.Errorf("stalled call latency %v, want at least %v", latency[staller], stall)
	}
	// The stall ends staller*interval+stall after the start; call i was due
	// at i*interval, so it waited the difference.
	for i := staller + 1; i < staller+9; i++ {
		want := time.Duration(staller-i)*interval + stall - time.Millisecond
		if late[i] < want || latency[i] < late[i] {
			t.Errorf("call %d due during the stall: late %v latency %v, want at least %v", i, late[i], latency[i], want)
		}
	}
	// Long after the backlog drained the schedule is met again (generous: a
	// loaded test machine may oversleep).
	for i := n - 5; i < n; i++ {
		if latency[i] > stall/2 {
			t.Errorf("call %d after the backlog drained still has latency %v", i, latency[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		spec metricSpec
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), "within bound"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{higher, tight(100), tight(95), "within bound"},
		{lower, tight(100), wide(130), "unresolved"},
		{lower, wide(100), tight(100), "unresolved"},
	} {
		if got, _ := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %g -> %g) = %q, want %q", c.spec.Better, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must stay inside the limits the PR driver refuses a file
// for, since a refused file means no run at all.
func TestSpecMeetsTheContract(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(spec.Workloads))
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// zeroWhenHealthy are per-layer counts whose correct value on every smoke
// workload is 0, so "measured nowhere" cannot be told from "measured as 0".
var zeroWhenHealthy = map[string]bool{
	"pagerank.slow_noops": true, "salsa.slow_noops": true,
	"pagerank.del_misses": true, "salsa.del_misses": true,
	"serve.coalesced_share": true,                         // one querier never coalesces with itself
	"serve.evictions":       true, "serve.hit_rate": true, // smoke storms invalidate before a repeat
	"gen.late_p99_ms": true,
	// A pagerank deletion truncates only when it leaves its source dangling,
	// and the generated streams delete only edges they added.
	"pagerank.del_truncated_per_deletion": true,
}

// Every workload runs at smoke scale, untraced and traced; each prints
// exactly the declared metric set; every end-to-end metric is non-zero; and
// every declared per-layer metric is measured by at least one workload.
func TestEveryWorkloadEmitsTheDeclaredSet(t *testing.T) {
	spec := mustSpec(t)
	sz := smokeSizes(t, spec)
	tmp := t.TempDir()
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		res, err := runOnce(w.Name, sz, 1, false, tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(res.Failures) > 0 || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d failed %d: %v", w.Name, res.Attempted, res.Failed, res.Failures)
		}
		got, err := emit(spec.EndToEnd, res.Metrics, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, m := range spec.EndToEnd {
			if v := got[m.Name]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, v)
			}
		}

		res, err = runOnce(w.Name, sz, 1, true, tmp)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if len(res.Failures) > 0 {
			t.Errorf("%s traced: %v", w.Name, res.Failures)
		}
		if res.tr == nil || len(res.tr.spans) == 0 {
			t.Errorf("%s traced: no spans recorded", w.Name)
		}
		got, err = emit(spec.PerLayer, res.Metrics, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if len(got) != len(spec.PerLayer) {
			t.Errorf("%s traced: %d metrics emitted, %d declared", w.Name, len(got), len(spec.PerLayer))
		}
		for name, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced: %s = %v", w.Name, name, v)
			}
			measured[name] = measured[name] || v != 0
		}
		if cov := got["trace.span_coverage_pct"]; (w.Name == "pr_churn" || w.Name == "salsa_churn") && cov < 95 {
			t.Errorf("%s: per-event spans cover %.1f%% of the stream, want at least 95", w.Name, cov)
		}
	}
	var missing []string
	for _, m := range spec.PerLayer {
		if !measured[m.Name] && !zeroWhenHealthy[m.Name] {
			missing = append(missing, m.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("declared per-layer metrics no workload measured: %v", missing)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil || len(entries) != 0 {
		t.Errorf("runs left %d entries in the temporary directory (err %v)", len(entries), err)
	}
}

// Serialized workloads repeat their counts bit for bit on one seed and
// change them on another.
func TestSerializedWorkloadsRepeatPerSeed(t *testing.T) {
	spec := mustSpec(t)
	sz := smokeSizes(t, spec)
	tmp := t.TempDir()
	exact := []string{"store_calls_per_update", "l1_err"}
	for _, w := range []string{"pr_churn", "salsa_churn", "durable_stream"} {
		run := func(seed uint64) *runResult {
			res, err := runOnce(w, sz, seed, false, tmp)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			return res
		}
		a, b, c := run(1), run(1), run(2)
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d then %d on one seed", w, a.Attempted, b.Attempted)
		}
		for _, m := range exact {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s = %v then %v on one seed", w, m, a.Metrics[m], b.Metrics[m])
			}
			if a.Metrics[m] == c.Metrics[m] {
				t.Errorf("%s: %s = %v on seeds 1 and 2 alike", w, m, a.Metrics[m])
			}
		}
	}
}

func TestSecondsScaleTheStreams(t *testing.T) {
	spec := mustSpec(t)
	full, err := sizesFor("full", spec.RunSeconds, spec.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	half, err := sizesFor("full", spec.RunSeconds/2, spec.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if half.SalsaArrivals*2 != full.SalsaArrivals || half.ServeSeconds*2 != full.ServeSeconds || half.PRArrivals*2 != full.PRArrivals {
		t.Errorf("half the seconds: %+v\nfull: %+v", half, full)
	}
	if half.PRNodes != full.PRNodes || half.PRBootstrapEdges != full.PRBootstrapEdges {
		t.Error("-seconds changed the graph, not only the stream")
	}
	if _, err := sizesFor("full", 0, spec.RunSeconds); err == nil {
		t.Error("0 seconds accepted")
	}
	if _, err := sizesFor("huge", 1, 1); err == nil {
		t.Error("unknown scale accepted")
	}
}
