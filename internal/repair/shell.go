package repair

import (
	"math/rand/v2"
	"sync"

	"fastppr/internal/graph"
	"fastppr/internal/socialstore"
	"fastppr/internal/stripes"
	"fastppr/internal/walkstore"
)

// endpointStripes serializes writes by endpoint. Out-degree moves only on
// writes from a source and in-degree only on writes to a target, so locking
// the stripes of the endpoints an event's phases run at makes the write and
// its repair atomic per endpoint: the phases' degrees are the write's own
// reply. A repair's first step out of an endpoint is therefore ordered with
// every deletion of that step's edge, which holds the same stripe; that is
// why the straggler sweep need not watch it.
const endpointStripes = 256

// Law is what a Shell is built from. Everything that tells a PageRank
// maintainer from a SALSA one is a value here: the kernel's Config carries
// the tail law and the update stream, and Sides fixes the rest — where each
// phase runs, its degree, reset coin and endpoint stripe, and what is seeded.
type Law struct {
	Config
	// R is the number of walks a known node owns per side.
	R int
	// Sides lists an event's repair phases in order: pagerank's [Unsided],
	// salsa's [SideForward, SideBackward]. A node first seen mid-stream
	// seeds R walks per side, each drawn by the tail law.
	Sides []walkstore.Side
	// Observe, when set, runs after every arrival and every deletion has
	// finished its repair, concurrently from every worker under
	// Workers > 1.
	Observe func(graph.Edge)
}

// Shell is the event sequencing an incremental maintainer wraps around its
// kernel (see the package doc).
type Shell struct {
	soc   *socialstore.Store
	walks *walkstore.Store
	k     *Kernel
	law   *Law

	mu        sync.Mutex // serializes the serialized update path and the sweep
	serial    *Worker    // guarded by mu
	serialPCG *rand.PCG  // source behind serial's RNG, retained for state capture

	knownMu sync.Mutex
	known   map[graph.NodeID]bool // nodes owning their R walks per side

	endMu *stripes.MutexSet
}

// NewShell returns a shell repairing walks over soc's graph by law.
// The shell reads law at every event, so a maintainer may set Observe after
// construction, before the first event.
func NewShell(soc *socialstore.Store, walks *walkstore.Store, law *Law) *Shell {
	pcg := rand.NewPCG(law.Seed, law.Stream)
	return &Shell{
		soc:       soc,
		walks:     walks,
		k:         New(walks, soc, law.Config),
		law:       law,
		serial:    NewWorker(rand.New(pcg), soc),
		serialPCG: pcg,
		known:     make(map[graph.NodeID]bool),
		endMu:     stripes.NewMutexSet(endpointStripes),
	}
}

// Serial returns s's kernel and the worker of its serialized path, for tests;
// use it only while no update runs. A function, not a method, so that a
// maintainer embedding the shell does not export it.
func Serial(s *Shell) (*Kernel, *Worker) { return s.k, s.serial }

// Counters returns the live accounting the shell and its kernel share. A
// maintainer embedding the shell shadows it with its own snapshot.
func (s *Shell) Counters() *Counters { return &s.k.Cnt }

// Store returns the walk store.
func (s *Shell) Store() *walkstore.Store { return s.walks }

// Social returns the call-accounted graph store.
func (s *Shell) Social() *socialstore.Store { return s.soc }

// Bootstrap runs build, the maintainer's offline pass storing R walks per
// side for every node currently in the graph, serialized against updates,
// and marks those nodes known so no arrival seeds them. It returns what
// build returns: the walk steps stored. A nil build only marks the nodes,
// for a maintainer resuming over a store that already holds their walks. A
// maintainer embedding the shell shadows it with its own Bootstrap.
func (s *Shell) Bootstrap(build func(nodes []graph.NodeID) int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := s.soc.Graph().Nodes()
	var steps int64
	if build != nil {
		steps = build(nodes)
	}
	s.knownMu.Lock()
	for _, v := range nodes {
		s.known[v] = true
	}
	s.knownMu.Unlock()
	return steps
}

// UpdateRNGState serializes the serialized-path update RNG. Persisted in a
// commit marker alongside the edge cursor, it is the missing half of an
// exact resume: the walk store fixes the segments, this fixes the coin
// flips the next repair will draw.
func (s *Shell) UpdateRNGState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.serialPCG.MarshalBinary()
	if err != nil { // the PCG marshaler cannot fail
		panic(err)
	}
	return b
}

// RestoreUpdateRNGState rewinds the serialized-path update RNG to a state
// captured by UpdateRNGState.
func (s *Shell) RestoreUpdateRNGState(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serialPCG.UnmarshalBinary(b)
}

// ApplyEdge consumes one edge arrival: it writes the edge through the social
// store, repairs the stored walks it perturbs, and seeds R walks per side
// for any endpoint seen for the first time. Always serialized; use
// ApplyEdges with Workers > 1 for concurrent consumption.
func (s *Shell) ApplyEdge(ed graph.Edge) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arrive(ed, s.serial)
}

// ApplyEdges consumes a batch of arrivals. With Workers <= 1 they are
// applied in order by one goroutine, reproducible per seed; with more they
// are claimed from a shared cursor and applied concurrently — arrivals
// sharing an endpoint stripe stay mutually ordered by it, and the result is
// reproducible in distribution.
func (s *Shell) ApplyEdges(edges []graph.Edge) {
	if s.law.Workers > 1 {
		// Pre-group the storm by source stripe, a stable permutation, so
		// consecutive claims hit the same counter stripe and endpoint lock.
		order := walkstore.GroupByStripe(len(edges), func(i int) graph.NodeID { return edges[i].From })
		s.k.Pool(len(edges), order, nil, func(i int, w *Worker) { s.arrive(edges[i], w) })
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ed := range edges {
		s.arrive(ed, s.serial)
	}
}

// ApplyDeletion consumes one edge deletion: it removes one copy of the edge
// from the social store and repairs the stored walks that traversed it.
// Deleting an edge not in the graph is a counted no-op. Always serialized;
// use ApplyDeletions or ApplyEvents with Workers > 1 for concurrent
// consumption.
func (s *Shell) ApplyDeletion(ed graph.Edge) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delete(ed, s.serial)
}

// ApplyDeletions consumes a batch of deletions under the same
// serialized-vs-parallel regime as ApplyEdges.
func (s *Shell) ApplyDeletions(edges []graph.Edge) {
	if s.law.Workers > 1 {
		s.sweepStragglers(s.k.Pool(len(edges), nil, edges, func(i int, w *Worker) { s.delete(edges[i], w) }))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ed := range edges {
		s.delete(ed, s.serial)
	}
}

// ApplyEvents consumes a mixed stream of arrivals and deletions under the
// same regime as ApplyEdges. A deletion racing the arrival of the same edge
// on another worker may find the edge missing and count a DelMiss, exactly
// as if the stream had been reordered.
func (s *Shell) ApplyEvents(events []graph.Event) {
	if s.law.Workers > 1 {
		var dels []graph.Edge
		for _, ev := range events {
			if ev.Del {
				dels = append(dels, ev.Edge)
			}
		}
		s.sweepStragglers(s.k.Pool(len(events), nil, dels, func(i int, w *Worker) { s.apply(events[i], w) }))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range events {
		s.apply(ev, s.serial)
	}
}

func (s *Shell) apply(ev graph.Event, w *Worker) {
	if ev.Del {
		s.delete(ev.Edge, w)
	} else {
		s.arrive(ev.Edge, w)
	}
}

// phase returns where the phase on side of the event u -> v runs, the
// endpoint across the edge, and which of the write's two degrees and which
// reset probability it takes. An unsided or forward phase runs at u toward
// v, with u's out-degree dout and reset probability Eps. A backward phase
// runs at v toward u, with v's in-degree din and none: a walk pauses before
// a backward step with no reset coin, so when v gains its first in-edge
// every walk that died there continues.
func (s *Shell) phase(side walkstore.Side, u, v graph.NodeID, dout, din int) (at, other graph.NodeID, d int, eps float64) {
	if side == walkstore.SideBackward {
		return v, u, din, 0
	}
	return u, v, dout, s.law.Eps
}

// lockEnds locks the endpoint stripes of the event u -> v's phases. Source
// and target roles take disjoint keys (2u and 2v+1), so an event from a node
// does not falsely serialize with one into it; a law whose phases all run at
// the source takes one stripe.
func (s *Shell) lockEnds(u, v graph.NodeID) (i, j int) {
	key := func(side walkstore.Side) uint64 {
		if side == walkstore.SideBackward {
			return 2*uint64(v) + 1
		}
		return 2 * uint64(u)
	}
	return s.endMu.LockPair(key(s.law.Sides[0]), key(s.law.Sides[len(s.law.Sides)-1]))
}

// arrive is one arrival: the edge write, then one repair.Kernel.Arrive
// phase per side under the event's endpoint stripes, then the seeding of new
// endpoints. A later phase leaves out the positions an earlier one just
// regrew: they already sampled the new edge.
func (s *Shell) arrive(ed graph.Edge, w *Worker) {
	s.k.Cnt.Arrivals.Add(1)
	u, v := ed.From, ed.To
	li, lj := s.lockEnds(u, v)
	dout, din := s.soc.AddEdge(u, v) // the degrees ride the write's reply
	w.Reset()
	for _, side := range s.law.Sides {
		at, to, d, eps := s.phase(side, u, v, dout, din)
		s.k.Arrive(w, at, to, side, d, eps)
	}
	s.endMu.UnlockPair(li, lj)
	// Seed new endpoints last: freshly seeded walks already sample the new
	// edge, so repairing them too would over-weight it.
	s.ensureNode(u, w)
	s.ensureNode(v, w)
	// The observer fires only once every store and graph effect of the event
	// is visible, so a cache entry validated after it cannot have missed it.
	if s.law.Observe != nil {
		s.law.Observe(ed)
	}
	s.k.MaybeCompact()
}

// delete is one deletion: the removal of one copy of u -> v, then one
// repair.Kernel.Unroute phase per side under the same endpoint stripes an
// arrival holds, so no other write sharing an endpoint lands between the
// removal and its repair. Deleting an edge not in the graph is a counted
// no-op. The edge is removed before the repair so fresh tails sample the
// new graph; the write's reply carries both surviving degrees and the copies
// left, so the pre-removal multiplicity is those plus the removed one.
func (s *Shell) delete(ed graph.Edge, w *Worker) {
	s.k.Cnt.Deletions.Add(1)
	u, v := ed.From, ed.To
	li, lj := s.lockEnds(u, v)
	dout, din, left, ok := s.soc.RemoveEdge(u, v)
	if !ok {
		s.endMu.UnlockPair(li, lj)
		s.k.Cnt.DelMisses.Add(1)
		return
	}
	w.Reset()
	for _, side := range s.law.Sides {
		at, other, d, _ := s.phase(side, u, v, dout, din)
		s.k.Unroute(w, at, other, side, left+1, d)
	}
	s.endMu.UnlockPair(li, lj)
	if s.law.Observe != nil {
		s.law.Observe(ed)
	}
	s.k.MaybeCompact()
}

// sweepStragglers is the serialized pass after a parallel deletion batch. A
// tail regrown by a concurrent repair can sample a deleted edge just before
// it leaves the graph and index the step just after the deleting worker's
// scans, stranding a stored step through a missing edge. Every such step
// was sampled through a worker's Recorder, so its edge is a suspect (a
// repair's first step out of an endpoint is ordered by the endpoint stripe;
// see endpointStripes). For each suspect still absent, re-running every
// phase with pre-removal multiplicity 1 captures its stragglers
// deterministically; a suspect re-present at sweep time is skipped, its
// stored steps legal. The graph is quiescent under s.mu, so the
// missing-edge-step invariant holds whenever a batch call returns. No
// observer fires: the sweep touches only the store, which the serving tier
// tracks through its per-stripe epochs.
func (s *Shell) sweepStragglers(suspects []graph.Edge) {
	if len(suspects) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.k.Cnt.Suspects.Add(int64(len(suspects)))
	for _, ed := range suspects {
		u, v := ed.From, ed.To
		li, lj := s.lockEnds(u, v)
		if s.soc.CountEdges(u, v) == 0 {
			s.k.Cnt.Swept.Add(1)
			s.serial.Reset()
			for _, side := range s.law.Sides {
				at, other, _, _ := s.phase(side, u, v, 0, 0)
				degree := s.soc.OutDegree
				if side == walkstore.SideBackward {
					degree = s.soc.InDegree
				}
				s.k.Unroute(s.serial, at, other, side, 1, degree(at))
			}
		}
		s.endMu.UnlockPair(li, lj)
	}
}

// ensureNode seeds R walks per side for a node first seen mid-stream:
// segment by segment, one walk per side in the law's order, then one store
// batch per side. A fresh walk from v is the tail law's regrowth after a
// step to v from the other side, drawing exactly what walk.PageRank and
// walk.Salsa draw. Exactly one event claims v, under knownMu; the walks are
// sampled outside the lock.
func (s *Shell) ensureNode(v graph.NodeID, w *Worker) {
	s.knownMu.Lock()
	if s.known[v] {
		s.knownMu.Unlock()
		return
	}
	s.known[v] = true
	s.knownMu.Unlock()
	r, sides := s.law.R, s.law.Sides
	paths := make([][]graph.NodeID, r*len(sides))
	var steps int
	for i := range r {
		for j, side := range sides {
			prev := side
			if side != walkstore.Unsided {
				prev = side.PendingAt(1)
			}
			p := s.law.Tail(w.NB, v, prev, s.law.Eps, w.RNG, []graph.NodeID{v})
			paths[j*r+i] = p
			steps += len(p)
		}
	}
	for j, side := range sides {
		s.walks.AddBatchSided(paths[j*r:(j+1)*r], side)
	}
	s.k.Cnt.StepsIn.Add(int64(steps))
	s.k.Cnt.Seeded.Add(int64(len(paths)))
}
