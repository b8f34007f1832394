package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refRow and refGraph are the reference model for RemoveEdge: rows grow by
// append and shrink by a forward first-occurrence swap-delete on both rows,
// the rule whose resulting row order the replay contract pins.
type refRow struct{ out, in []NodeID }

type refGraph map[NodeID]*refRow

func (m refGraph) add(u, v NodeID) {
	for _, x := range []NodeID{u, v} {
		if m[x] == nil {
			m[x] = &refRow{}
		}
	}
	m[u].out = append(m[u].out, v)
	m[v].in = append(m[v].in, u)
}

func (m refGraph) remove(u, v NodeID) bool {
	if m[u] == nil || m[v] == nil {
		return false
	}
	i, j := slices.Index(m[u].out, v), slices.Index(m[v].in, u)
	if i < 0 {
		return false
	}
	refSwapDelete(&m[u].out, i)
	refSwapDelete(&m[v].in, j)
	return true
}

func refSwapDelete(s *[]NodeID, i int) {
	(*s)[i] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
}

// copies returns the multiplicity of u -> v in the model.
func (m refGraph) copies(u, v NodeID) int {
	n := 0
	if r := m[u]; r != nil {
		for _, x := range r.out {
			if x == v {
				n++
			}
		}
	}
	return n
}

// graphOpStats records what a runGraphOps input covered, so a fixed-seed test
// can assert that its stream reached the cases it names.
type graphOpStats struct {
	maxCopies, maxInDegree   int
	selfLoops, multiRemovals int
	oldVictims, youngVictims int
}

// graphNode maps an operand byte onto a 16-node space: fourteen dense IDs, a
// negative one and one past denseLimit, both served from the sparse map.
func graphNode(x byte) NodeID {
	switch x % 16 {
	case 14:
		return -3
	case 15:
		return denseLimit + 1
	}
	return NodeID(x % 16)
}

// runGraphOps decodes data as (kind, a, b) triples and applies each to a
// Graph and to the reference model:
//
//	kind%4 == 0: AddEdge(node(a), node(b))
//	kind%4 == 1: RemoveEdge(node(a), node(b)), present or not
//	kind%4 == 2: remove the edge into node(b) whose in-row entry sits at
//	             relative position a/256 (0 is the oldest end)
//	kind%4 == 3: add 128 edges into node(b) from sources 64..2111, picked
//	             round-robin by a, so repeated loads build hubs whose sources
//	             hold one copy or several
//
// After every operation it compares both touched nodes' rows element for
// element, CountEdges and NumEdges, and runs Validate; at the end, every row.
// Every write's reply is checked against the model as it stands after the
// write: AddEdge's out- and in-degree, RemoveEdge's out- and in-degree,
// copies left and whether an edge was removed.
func runGraphOps(t *testing.T, data []byte) (st graphOpStats) {
	t.Helper()
	g := NewWithShards(0, 4)
	m := refGraph{}
	edges := 0
	add := func(u, v NodeID) {
		out, in := g.AddEdge(u, v)
		m.add(u, v)
		if wo, wi := len(m[u].out), len(m[v].in); out != wo || in != wi {
			t.Fatalf("AddEdge(%d, %d) replied (%d, %d), model (%d, %d)", u, v, out, in, wo, wi)
		}
		edges++
	}
	remove := func(u, v NodeID) {
		c := m.copies(u, v)
		out, in, left, ok := g.RemoveEdge(u, v)
		if want := m.remove(u, v); ok != want {
			t.Fatalf("RemoveEdge(%d, %d) = %v, model says %v", u, v, ok, want)
		}
		if c == 0 {
			if out != 0 || in != 0 || left != 0 {
				t.Fatalf("RemoveEdge(%d, %d) missed but replied (%d, %d, %d)", u, v, out, in, left)
			}
			return
		}
		if wo, wi, wl := len(m[u].out), len(m[v].in), m.copies(u, v); out != wo || in != wi || left != wl {
			t.Fatalf("RemoveEdge(%d, %d) replied (%d, %d, %d), model (%d, %d, %d)", u, v, out, in, left, wo, wi, wl)
		}
		edges--
		if u == v {
			st.selfLoops++
		}
		if c > 1 {
			st.multiRemovals++
		}
	}
	for ; len(data) >= 3; data = data[3:] {
		kind, a, b := data[0], data[1], data[2]
		u, v := graphNode(a), graphNode(b)
		switch kind % 4 {
		case 0:
			add(u, v)
		case 1:
			remove(u, v)
		case 2:
			if m[v] == nil || len(m[v].in) == 0 {
				continue
			}
			in := m[v].in
			p := int(a) * len(in) / 256
			if 4*p < len(in) {
				st.oldVictims++
			} else if 4*p >= 3*len(in) {
				st.youngVictims++
			}
			u = in[p]
			remove(u, v)
		case 3:
			for k := 0; k < 128; k++ {
				add(NodeID(64+(int(a)*128+k)%2048), v)
			}
			u = v
		}
		st.maxCopies = max(st.maxCopies, m.copies(u, v))
		if m[v] != nil {
			st.maxInDegree = max(st.maxInDegree, len(m[v].in))
		}
		requireRows(t, g, m, u, v)
		if got := g.CountEdges(u, v); got != m.copies(u, v) {
			t.Fatalf("CountEdges(%d, %d) = %d, model %d", u, v, got, m.copies(u, v))
		}
		if g.NumEdges() != edges {
			t.Fatalf("NumEdges = %d, model %d", g.NumEdges(), edges)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]NodeID, 0, len(m))
	for v := range m {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	if got := g.Nodes(); !slices.Equal(got, nodes) {
		t.Fatalf("Nodes = %v, model %v", got, nodes)
	}
	requireRows(t, g, m, nodes...)
	return st
}

// requireRows fails unless each node's out- and in-rows match the model in
// order, not only as multisets: RandomOutNeighbor and RandomInNeighbor index
// them, so row order is what fixed-seed replays see.
func requireRows(t *testing.T, g *Graph, m refGraph, nodes ...NodeID) {
	t.Helper()
	for _, v := range nodes {
		var want refRow
		if m[v] != nil {
			want = *m[v]
		}
		requireRow(t, "out", v, g.OutNeighbors(v), want.out)
		requireRow(t, "in", v, g.InNeighbors(v), want.in)
	}
}

func requireRow(t *testing.T, dir string, v NodeID, got, want []NodeID) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%s-row of %d (%d entries, model %d) first differs at %d: %v, model %v",
		dir, v, len(got), len(want), i, got[i:min(len(got), i+8)], want[i:min(len(want), i+8)])
}

// TestRemoveEdgeMatchesFirstOccurrence replays a fixed-seed stream through
// Graph and the forward first-occurrence model: churn over a small node space
// (multi-edges, self-loops, sparse IDs), then a hub past 2 Ki in-edges whose
// sources hold one or two copies, losing victims of every age.
func TestRemoveEdgeMatchesFirstOccurrence(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	var data []byte
	op := func(kind int, a, b byte) { data = append(data, byte(kind), a, b) }
	for i := 0; i < 1500; i++ {
		op(rng.IntN(3), byte(rng.IntN(256)), byte(rng.IntN(256)))
	}
	// Twenty loads into node 0: 2,560 in-edges, sources 64..575 twice.
	for i := 0; i < 20; i++ {
		op(3, byte(i), 0)
		op(rng.IntN(2), byte(rng.IntN(256)), 0)
	}
	for i := 0; i < 1000; i++ {
		op(2, byte(rng.IntN(256)), 0)
		if i%4 == 0 {
			op(0, byte(rng.IntN(256)), 0)
		}
	}
	st := runGraphOps(t, data)
	if st.maxCopies < 3 || st.maxInDegree < 2048 || st.selfLoops == 0 || st.multiRemovals == 0 ||
		st.oldVictims == 0 || st.youngVictims == 0 {
		t.Fatalf("stream missed a case it is meant to cover: %+v", st)
	}
}

// FuzzGraphEdges lets the Go fuzzer mutate the operation sequence of
// runGraphOps; the seed corpus under testdata/fuzz/FuzzGraphEdges covers
// multi-edges, self-loops, sparse IDs and a loaded hub losing old and young
// victims.
func FuzzGraphEdges(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 1, 2, 2, 0, 2, 1, 1, 2})
	f.Add([]byte{0, 3, 3, 0, 3, 3, 0, 3, 4, 1, 3, 3, 2, 255, 3, 1, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every operation runs Validate, so an input's cost grows with its
		// length times the edges it loads; 256 operations hold at most 32 Ki.
		runGraphOps(t, data[:min(len(data), 3*256)])
	})
}
