package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"fastppr/internal/exact"
	"fastppr/internal/graph"
	"fastppr/internal/pagerank"
	"fastppr/internal/persist"
	"fastppr/internal/salsa"
	"fastppr/internal/serve"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

// counters is the update-path accounting both maintainers keep, in one shape.
type counters struct {
	Arrivals, FastSkips, EmptySkips, SlowPaths, SlowNoops int64
	Rerouted, Revived                                     int64
	Deletions, DelMisses, DelRerouted, DelTruncated       int64
}

// skipRate is the maintainers' own SkipRate: skipped repair phases over all
// repair phases (one per pagerank arrival, two per salsa arrival).
func (c counters) skipRate() float64 {
	return ratio(float64(c.FastSkips+c.EmptySkips), float64(c.FastSkips+c.EmptySkips+c.SlowPaths))
}

// system is one freshly set-up instance of the stack a workload drives:
// graph, social store, one maintainer, and on two workloads the serving tier
// or the durability manager in front of it. Exactly one of pr and sa is set.
type system struct {
	g   *graph.Graph
	soc *socialstore.Store
	pr  *pagerank.Maintainer
	sa  *salsa.Maintainer
	srv *serve.Server
	pm  *persist.Manager
	dir string // durable directory, removed by discard
	eps float64
}

// setup builds the graph from the generated bootstrap edges and bootstraps
// the workload's maintainer over it; on durable_stream it also opens the
// durable directory and takes the first checkpoint. This is what setup_s
// times. Bootstrap runs with one worker so serialized workloads assign
// segment IDs — and therefore draw repair coins — identically on every run
// of a seed.
func setup(workload string, sz sizes, in *inputs, seed uint64, tmpRoot string, tr *tracer) (*system, error) {
	s := &system{eps: sz.Eps}
	sp := tr.begin("graph.build")
	s.g = graph.New(in.nodes)
	for _, e := range in.bootstrap {
		s.g.AddEdge(e.From, e.To)
	}
	tr.end(sp)
	s.soc = socialstore.New(s.g)

	switch workload {
	case "pr_churn", "pr_churn_par":
		uw := 1
		if workload == "pr_churn_par" {
			uw = 2
		}
		s.pr = pagerank.New(s.soc, pagerank.Config{Eps: sz.Eps, R: sz.R, Workers: 1, UpdateWorkers: uw, Seed: seed})
	case "durable_stream":
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		sp := tr.begin("persist.open")
		pm, walks, _, err := persist.Open(persist.Config{Dir: dir, Policy: persist.SyncEveryN, SyncEveryN: sz.SyncEveryN})
		tr.end(sp)
		if err != nil {
			s.discard()
			return nil, err
		}
		s.pm = pm
		s.pr = pagerank.NewWithStore(s.soc, pagerank.Config{Eps: sz.Eps, R: sz.R, Workers: 1, UpdateWorkers: 1, Seed: seed}, walks)
	case "salsa_churn", "serve_storm":
		s.sa = salsa.New(s.soc, salsa.Config{Eps: sz.Eps, R: sz.R, Workers: 1, UpdateWorkers: 1, Seed: seed, CompactEvery: sz.CompactEvery})
		if workload == "serve_storm" {
			s.srv = serve.New(s.sa, serve.Config{MaxEntries: sz.ServeCacheEntries})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	if s.pr != nil {
		sp := tr.begin("pagerank.bootstrap")
		s.pr.Bootstrap()
		tr.end(sp)
	} else {
		sp := tr.begin("salsa.bootstrap")
		s.sa.Bootstrap()
		tr.end(sp)
	}
	if s.pm != nil {
		sp := tr.begin("persist.checkpoint")
		err := s.pm.Checkpoint()
		tr.end(sp)
		if err != nil {
			s.discard()
			return nil, err
		}
	}
	return s, nil
}

// discard releases what a system holds outside the heap.
func (s *system) discard() {
	if s.pm != nil {
		_ = s.pm.Close() // the directory is about to be removed
		s.pm = nil
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // best effort; out/ is emptied by the next run anyway
		s.dir = ""
	}
}

func (s *system) store() *walkstore.Store {
	if s.pr != nil {
		return s.pr.Store()
	}
	return s.sa.Store()
}

// layer names the maintainer for span and metric prefixes.
func (s *system) layer() string {
	if s.pr != nil {
		return "pagerank"
	}
	return "salsa"
}

func (s *system) counters() counters {
	if s.pr != nil {
		c := s.pr.Counters()
		return counters{c.Arrivals, c.FastSkips, c.EmptySkips, c.SlowPaths, c.SlowNoops, c.Rerouted, c.Revived,
			c.Deletions, c.DelMisses, c.DelRerouted, c.DelTruncated}
	}
	c := s.sa.Counters()
	return counters{c.Arrivals, c.FastSkips, c.EmptySkips, c.SlowPaths, c.SlowNoops, c.Rerouted, c.Revived,
		c.Deletions, c.DelMisses, c.DelRerouted, c.DelTruncated}
}

// applyEvents is the batch entry point: the serialized or parallel path the
// maintainer's UpdateWorkers selects.
func (s *system) applyEvents(evs []graph.Event) {
	if s.pr != nil {
		s.pr.ApplyEvents(evs)
	} else {
		s.sa.ApplyEvents(evs)
	}
}

// applyOne applies a single event through the always-serialized entry points.
func (s *system) applyOne(ev graph.Event) {
	switch {
	case s.pr != nil && ev.Del:
		s.pr.ApplyDeletion(ev.Edge)
	case s.pr != nil:
		s.pr.ApplyEdge(ev.Edge)
	case ev.Del:
		s.sa.ApplyDeletion(ev.Edge)
	default:
		s.sa.ApplyEdge(ev.Edge)
	}
}

// l1 is the L1 distance between the maintained global estimates and the
// power-iteration oracle on the graph as it stands: PageRank for the pagerank
// maintainer, global authority scores for SALSA.
func (s *system) l1(tr *tracer) float64 {
	sp := tr.begin("exact.oracle")
	defer tr.end(sp)
	if s.pr != nil {
		return l1Distance(exact.PageRank(s.g, s.eps, 1e-9), s.pr.ApproxAll())
	}
	auth, _ := exact.Salsa(s.g, s.eps, 1e-9)
	return l1Distance(auth, s.sa.AuthorityAll())
}

// l1Distance is exact.L1 summed in node order instead of map order, so a
// serialized workload's l1_err repeats to the last bit on a seed.
func l1Distance(a, b map[graph.NodeID]float64) float64 {
	nodes := make([]graph.NodeID, 0, len(a))
	for v := range a {
		nodes = append(nodes, v)
	}
	for v := range b {
		if _, ok := a[v]; !ok {
			nodes = append(nodes, v)
		}
	}
	slices.Sort(nodes)
	var sum float64
	for _, v := range nodes {
		sum += math.Abs(a[v] - b[v])
	}
	return sum
}
