// Package lockorderfix exercises the lockorder analyzer: the §6 named lock
// sets reproduced in miniature, with every violation class and the clean
// idioms that must not be flagged.
package lockorderfix

import (
	"sync"

	"stripes"
)

type maintainer struct {
	endMu   stripes.MutexSet // level 1
	segs    stripes.MutexSet // level 2
	knownMu sync.Mutex       // exclusive
}

type Store struct {
	segMu sync.RWMutex // level 3
}

// kernel mirrors the repair kernel: its SegmentID stripes are a *MutexSet
// field named segMu, which must rank at level 2 — below the endpoint
// stripes, above the store's RWMutex of the same field name.
type kernel struct {
	segMu *stripes.MutexSet // level 2
}

type counterStripe struct {
	mu sync.Mutex // level 4
}

type shard struct {
	mu sync.RWMutex // level 5
}

// --- raw stripe misuse ---

func doubleRaw(m *maintainer, i, j int) {
	m.segs.Lock(i)
	m.segs.Lock(j) // want "second raw stripe lock on m.segs"
	m.segs.Unlock(j)
	m.segs.Unlock(i)
}

func rawExtendsSet(m *maintainer, keys []uint64, buf []int) {
	buf = m.segs.LockKeys(keys, buf)
	m.segs.Lock(0) // want "extends a held multi-lock"
	m.segs.Unlock(0)
	m.segs.UnlockSet(buf)
}

func ofLocalDouble(m *maintainer, a, b uint64) {
	la := m.endMu.Of(a)
	lb := m.endMu.Of(b)
	la.Lock()
	lb.Lock() // want "second raw stripe lock on m.endMu"
	lb.Unlock()
	la.Unlock()
}

func inlineOfDouble(m *maintainer, a, b uint64) {
	m.endMu.Of(a).Lock()
	m.endMu.Of(b).Lock() // want "second raw stripe lock on m.endMu"
	m.endMu.Of(b).Unlock()
	m.endMu.Of(a).Unlock()
}

func rawInLoop(m *maintainer, keys []uint64) {
	for _, k := range keys {
		m.segs.Lock(m.segs.Index(k)) // want "acquired inside a loop and still held at loop end"
	}
}

func rawInLoopReleased(m *maintainer, keys []uint64) {
	for _, k := range keys {
		i := m.segs.Index(k)
		m.segs.Lock(i)
		m.segs.Unlock(i)
	}
}

// --- ordered primitives are clean ---

func pairClean(m *maintainer, a, b uint64) {
	i, j := m.endMu.LockPair(a, b)
	m.endMu.UnlockPair(i, j)
}

func setClean(m *maintainer, keys []uint64, buf []int) {
	buf = m.segs.LockKeys(keys, buf)
	defer m.segs.UnlockSet(buf)
}

func singleRawClean(m *maintainer, i int) {
	m.segs.Lock(i)
	m.segs.Unlock(i)
}

// --- cross-level order ---

func downwardClean(m *maintainer, st *Store, cs *counterStripe, i int) {
	m.endMu.Lock(i)
	st.segMu.Lock()
	cs.mu.Lock()
	cs.mu.Unlock()
	st.segMu.Unlock()
	m.endMu.Unlock(i)
}

func upward(st *Store, cs *counterStripe) {
	cs.mu.Lock()
	st.segMu.Lock() // want "acquisitions go downward only"
	st.segMu.Unlock()
	cs.mu.Unlock()
}

func upwardStripe(m *maintainer, st *Store, i int) {
	st.segMu.Lock()
	m.endMu.Lock(i) // want "acquisitions go downward only"
	m.endMu.Unlock(i)
	st.segMu.Unlock()
}

func kernelFreezeClean(m *maintainer, k *kernel, st *Store, keys []uint64, buf []int, i int) {
	m.endMu.Lock(i)
	buf = k.segMu.LockKeys(keys, buf)
	st.segMu.Lock()
	st.segMu.Unlock()
	k.segMu.UnlockSet(buf)
	m.endMu.Unlock(i)
}

func kernelUnderStore(k *kernel, st *Store, keys []uint64, buf []int) {
	st.segMu.Lock()
	buf = k.segMu.LockKeys(keys, buf) // want "acquisitions go downward only"
	k.segMu.UnlockSet(buf)
	st.segMu.Unlock()
}

func kernelOverEndpoint(m *maintainer, k *kernel, keys []uint64, buf []int, i int) {
	buf = k.segMu.LockKeys(keys, buf)
	m.endMu.Lock(i) // want "acquisitions go downward only"
	m.endMu.Unlock(i)
	k.segMu.UnlockSet(buf)
}

func kernelBesideSegs(m *maintainer, k *kernel, keys []uint64, buf []int, i int) {
	buf = k.segMu.LockKeys(keys, buf)
	m.segs.Lock(i) // want "within-level multi-lock must go through an ordered primitive"
	m.segs.Unlock(i)
	k.segMu.UnlockSet(buf)
}

func sameLevelCrossSet(m, o *maintainer, i, j int) {
	m.endMu.Lock(i)
	o.endMu.Lock(j) // want "within-level multi-lock must go through an ordered primitive"
	o.endMu.Unlock(j)
	m.endMu.Unlock(i)
}

func selfDeadlock(st *Store) {
	st.segMu.Lock()
	st.segMu.Lock() // want "self-deadlock"
	st.segMu.Unlock()
	st.segMu.Unlock()
}

// --- knownMu exclusivity ---

func knownThenOther(m *maintainer, st *Store) {
	m.knownMu.Lock()
	st.segMu.Lock() // want "while holding knownMu"
	st.segMu.Unlock()
	m.knownMu.Unlock()
}

func otherThenKnown(m *maintainer, st *Store) {
	st.segMu.Lock()
	m.knownMu.Lock() // want "knownMu acquired while holding"
	m.knownMu.Unlock()
	st.segMu.Unlock()
}

func knownAloneClean(m *maintainer) {
	m.knownMu.Lock()
	m.knownMu.Unlock()
}

// --- branch sensitivity ---

// lockPairShards is the graph.lockPair idiom: the two arms acquire the same
// pair in mirrored order, which is one ordered acquisition, not nesting.
func lockPairShards(a, b *shard, i, j int) {
	if i < j {
		a.mu.Lock()
		b.mu.Lock()
	} else {
		b.mu.Lock()
		a.mu.Lock()
	}
	b.mu.Unlock()
	a.mu.Unlock()
}

func unorderedShards(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "within-level multi-lock must go through an ordered primitive"
	b.mu.Unlock()
	a.mu.Unlock()
}

// earlyReturnClean releases on the error path and the main path; the arms
// must not pollute each other.
func earlyReturnClean(st *Store, bad bool) {
	st.segMu.Lock()
	if bad {
		st.segMu.Unlock()
		return
	}
	st.segMu.Unlock()
}

// goroutineScopeClean: the literal is its own scope — its acquisition must
// not count as nesting under the caller's lock.
func goroutineScopeClean(st *Store, cs *counterStripe) {
	cs.mu.Lock()
	go func() {
		st.segMu.Lock()
		st.segMu.Unlock()
	}()
	cs.mu.Unlock()
}

// --- the reviewed escape hatch ---

func allowedDouble(m *maintainer, i, j int) {
	m.segs.Lock(i)
	//lint:allow lockorder fixture demonstrates a reviewed suppression
	m.segs.Lock(j)
	m.segs.Unlock(j)
	m.segs.Unlock(i)
}
