// Package pebble simulates the paper's two-level memory model — the
// red-blue pebble game of Hong & Kung played on a CDAG — and measures
// the I/O of concrete schedules.
//
// Model (Section 1 of the paper): slow memory is unbounded; fast memory
// (cache) holds at most M values. Initially all inputs reside in slow
// memory and the cache is empty. Reading a value into cache or writing
// one back costs one I/O. A vertex may be computed only when all its
// parents are in cache, and the result is placed in cache. No vertex is
// computed twice. The run ends when every output has been written to
// slow memory. The I/O-complexity of the CDAG is the minimum total I/O
// over schedules and replacement decisions.
//
// The simulator takes the schedule (a topological order of the non-input
// vertices) as input and makes replacement decisions with a pluggable
// policy; the MIN (Belady) policy is optimal for a fixed schedule, so
// DFS-schedule + MIN gives the fair upper-bound measurement to compare
// against the paper's lower bound.
package pebble

import (
	"fmt"
	"math"

	"pathrouting/internal/cdag"
)

// Policy selects which cache-resident value to evict.
type Policy int

// Supported replacement policies.
const (
	// MIN is Belady's offline-optimal policy: evict the value whose
	// next use in the schedule is farthest in the future (preferring
	// values with no further use at all).
	MIN Policy = iota
	// LRU evicts the least recently used value.
	LRU
	// FIFO is meant to evict the value that entered cache earliest.
	// Today it evicts in LRU order, and its results equal LRU's: a
	// computation that uses a cached parent moves the parent to the
	// newest end of the eviction order. Leaving the parent where it
	// sits would make it first-in, first-out (ROADMAP.md, item 1).
	FIFO
)

func (p Policy) String() string {
	switch p {
	case MIN:
		return "MIN"
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Result reports the I/O measured for one simulation.
type Result struct {
	// Reads counts loads from slow memory into cache (including the
	// initial loads of inputs).
	Reads int64
	// Writes counts stores from cache to slow memory (including the
	// final stores of outputs).
	Writes int64
	// Computed is the number of vertices computed (sanity: equals the
	// schedule length).
	Computed int64
	// Evictions counts values dropped from cache (with or without a
	// write-back).
	Evictions int64
}

// IO returns the total I/O cost Reads + Writes.
func (r Result) IO() int64 { return r.Reads + r.Writes }

// Simulator runs schedules on a CDAG under the two-level model.
type Simulator struct {
	G *cdag.Graph
	M int
	P Policy
	// Obs, when non-nil, receives per-segment I/O observations and
	// read/write totals (see Instruments).
	Obs *Instruments
}

// Per-vertex state flags of a run.
const (
	inCache  uint8 = 1 << iota // the value is resident in fast memory
	inSlow                     // a valid copy exists in slow memory
	computed                   // the schedule has computed the vertex
)

// evictEntry is one cache-resident, unpinned value in MIN's eviction
// heap, keyed by its next use (a schedule position, or never). The key
// is fixed when the value enters the heap: a value's next use changes
// only while it is pinned as a parent, and a pinned value is out of the
// heap. The victim is the entry with the largest key.
type evictEntry struct {
	key int32
	v   cdag.V
}

// evictHeap is a max-heap on key that records each vertex's position
// in pos (-1 when absent). push, pop and remove compare the same pairs
// in the same order as container/heap's Push, Pop and Remove, so every
// entry ends where container/heap would leave it, but they carry the
// sifted entry through a hole instead of swapping it level by level.
// The order matters: keys tie (two parents of one vertex share a next
// use), and which tied entry surfaces decides the victims and so
// Writes.
type evictHeap struct {
	e   []evictEntry
	pos []int32
}

// up stores x at the hole j or above it, moving down into the hole
// each parent that x beats.
func (h *evictHeap) up(x evictEntry, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if x.key <= h.e[i].key {
			break
		}
		h.e[j] = h.e[i]
		h.pos[h.e[j].v] = int32(j)
		j = i
	}
	h.e[j] = x
	h.pos[x.v] = int32(j)
}

// down stores x at the hole i0 of e[:n] or below it, moving up into
// the hole the larger child while it beats x, and reports whether x
// went below i0.
func (h *evictHeap) down(x evictEntry, i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h.e[j2].key > h.e[j].key {
			j = j2
		}
		if h.e[j].key <= x.key {
			break
		}
		h.e[i] = h.e[j]
		h.pos[h.e[i].v] = int32(i)
		i = j
	}
	h.e[i] = x
	h.pos[x.v] = int32(i)
	return i > i0
}

func (h *evictHeap) push(x evictEntry) {
	h.e = append(h.e, x)
	h.up(x, len(h.e)-1)
}

// pop removes and returns the entry with the largest key; ok is false
// when the heap is empty.
func (h *evictHeap) pop() (v cdag.V, ok bool) {
	if len(h.e) == 0 {
		return 0, false
	}
	v = h.e[0].v
	h.remove(0)
	return v, true
}

// remove deletes the entry at index i. The last entry fills the hole
// and sifts down, or up if it cannot go down.
func (h *evictHeap) remove(i int) {
	n := len(h.e) - 1
	h.pos[h.e[i].v] = -1
	x := h.e[n]
	h.e = h.e[:n]
	if i != n && !h.down(x, i, n) {
		h.up(x, i)
	}
}

// recencyList is LRU's and FIFO's eviction order: the cache-resident,
// unpinned values, linked oldest to newest through two per-vertex
// tables. Slot n, one past the last vertex, is the sentinel that closes
// the ring: newer[n] is the oldest entry and older[n] the newest. A run
// pushes a value when it computes or unpins it, and pins a parent only
// after every earlier push, so the oldest entry is the least recently
// used value: no key is needed.
type recencyList struct {
	newer, older []int32
}

func newRecencyList(n int) recencyList {
	l := recencyList{newer: make([]int32, n+1), older: make([]int32, n+1)}
	l.newer[n], l.older[n] = int32(n), int32(n)
	return l
}

// push adds v as the newest entry.
func (l recencyList) push(v cdag.V) {
	s := int32(len(l.newer) - 1)
	o := l.older[s]
	l.older[v], l.newer[v] = o, s
	l.newer[o], l.older[s] = int32(v), int32(v)
}

// unlink removes v, which must be listed.
func (l recencyList) unlink(v cdag.V) {
	o, w := l.older[v], l.newer[v]
	l.newer[o], l.older[w] = w, o
}

// pop removes and returns the oldest entry; ok is false when the list
// is empty.
func (l recencyList) pop() (v cdag.V, ok bool) {
	s := int32(len(l.newer) - 1)
	if l.newer[s] == s {
		return 0, false
	}
	v = cdag.V(l.newer[s])
	l.unlink(v)
	return v, true
}

// never is the next-use key of a value with no further use. It must
// compare greater than every real schedule position, so schedules long
// enough for int32 positions to reach it are rejected up front (see
// checkScheduleLen) instead of silently corrupting MIN's priorities.
const never = int32(1 << 30)

// maxScheduleLen is the longest schedule the int32 next-use keys can
// address: positions must stay strictly below the `never` sentinel.
// Strassen k≥11 has more product vertices than this alone — such runs
// need the position type widened, not a wrapped comparison.
const maxScheduleLen = int(never) - 1

// checkScheduleLen rejects schedules whose positions would overflow the
// int32 next-use keys. Factored out of Run/AnalyzeLiveness so the guard
// is testable without allocating a 2³⁰-vertex schedule.
func checkScheduleLen(n int) error {
	if n > maxScheduleLen {
		return fmt.Errorf("pebble: schedule length %d exceeds the int32 position limit %d; widen the next-use keys before simulating at this scale", n, maxScheduleLen)
	}
	return nil
}

// checkUseCount rejects use-list growth past int32 indexing (the
// next-use lists are int32-indexed; with fan-in ≥ 2 they can overflow
// even when the schedule length alone does not).
func checkUseCount(have, add int) error {
	if have > math.MaxInt32-add {
		return fmt.Errorf("pebble: %d parent uses exceed the int32 chain limit; widen the next-use keys before simulating at this scale", have+add)
	}
	return nil
}

// Run simulates the schedule and returns the measured I/O. The schedule
// must be a topological order of every non-input vertex of the graph
// (use schedule-package generators); Run validates as it goes and
// returns an error on the first violation.
//
// A run reads parents from the graph's CSR index (cdag.ParentRow,
// built on first use and shared) and allocates a fixed number of
// dense per-vertex tables, however long the schedule. It relies on
// every parent row being strictly ascending, as ParentRow's are: a
// computation then uses each of its parents once, so it pins a parent
// once, counts down its uses once and steps its next-use pointer by
// exactly one.
func (s *Simulator) Run(schedule []cdag.V) (Result, error) {
	g := s.G
	if s.M < 2 {
		return Result{}, fmt.Errorf("pebble: cache size M = %d < 2 cannot compute binary operations", s.M)
	}
	if err := checkScheduleLen(len(schedule)); err != nil {
		return Result{}, err
	}
	n := g.NumVertices()
	// Inputs are EncA and EncB rank 0, outputs the last decoding rank,
	// which ends the ID space.
	aIn, bIn := g.LayerBase(cdag.EncA, 0), g.LayerBase(cdag.EncB, 0)
	nIn := uint32(g.LayerSize(cdag.EncA, 0))
	isInput := func(v cdag.V) bool { return uint32(v-aIn) < nIn || uint32(v-bIn) < nIn }
	outLo := g.LayerBase(cdag.Dec, g.R)

	// left[v] counts the uses of v as a parent that the run has yet to
	// reach. Counting them first also validates the schedule's vertex
	// range and sizes MIN's next-use lists.
	left := make([]int32, n)
	uses := n // one never sentinel per vertex in MIN's lists
	for _, v := range schedule {
		if uint32(v) >= uint32(n) {
			return Result{}, fmt.Errorf("pebble: schedule contains vertex %d outside [0,%d)", v, n)
		}
		row := g.ParentRow(v)
		if err := checkUseCount(uses, len(row)); err != nil {
			return Result{}, err
		}
		uses += len(row)
		for _, p := range row {
			left[p]++
		}
	}

	// LRU and FIFO evict from a recency list and only ask whether a
	// victim is used again: left[v] > 0. MIN keys a heap by next use.
	// Its next-use lists: usePos holds, for every vertex, the schedule
	// positions where it is a parent, in increasing order and closed by
	// a `never` sentinel; next[v], which takes over left's table,
	// indexes v's next use.
	byNextUse := s.P == MIN
	var (
		usePos, next []int32
		h            evictHeap
		list         recencyList
	)
	if byNextUse {
		next, left = left, nil
		usePos = make([]int32, uses)
		end := int32(0)
		for v := range next {
			end += next[v] + 1
			next[v] = end - 1
			usePos[end-1] = never
		}
		// Fill back to front so each list comes out in increasing order
		// and next[v] ends at the list's first entry.
		for pos := len(schedule) - 1; pos >= 0; pos-- {
			for _, p := range g.ParentRow(schedule[pos]) {
				next[p]--
				usePos[next[p]] = int32(pos)
			}
		}
		h = evictHeap{e: make([]evictEntry, 0, min(s.M, n)+1), pos: make([]int32, n)}
		for i := range h.pos {
			h.pos[i] = -1
		}
	} else {
		list = newRecencyList(n)
	}
	usedAgain := func(v cdag.V) bool {
		if byNextUse {
			return usePos[next[v]] != never
		}
		return left[v] > 0
	}

	st := make([]uint8, n)
	for i := uint32(0); i < nIn; i++ {
		st[aIn+cdag.V(i)] = inSlow // inputs start valid in slow memory
		st[bIn+cdag.V(i)] = inSlow
	}

	var res Result
	cacheCount := 0

	evictOne := func() error {
		var victim cdag.V
		var ok bool
		if byNextUse {
			victim, ok = h.pop()
		} else {
			victim, ok = list.pop()
		}
		if !ok {
			return fmt.Errorf("pebble: cache overcommitted: M = %d too small for a single computation", s.M)
		}
		st[victim] &^= inCache
		cacheCount--
		res.Evictions++
		if st[victim]&inSlow == 0 && usedAgain(victim) {
			// Value still needed later but no slow-memory copy: write it
			// back (one I/O) so it can be reloaded.
			res.Writes++
			st[victim] |= inSlow
		}
		return nil
	}
	ensureRoom := func() error {
		for cacheCount >= s.M {
			if err := evictOne(); err != nil {
				return err
			}
		}
		return nil
	}
	// load brings an uncached value into cache.
	load := func(v cdag.V) error {
		if st[v]&inSlow == 0 {
			return fmt.Errorf("pebble: schedule uses %s before it is computed", g.Label(v))
		}
		if err := ensureRoom(); err != nil {
			return err
		}
		res.Reads++
		st[v] |= inCache
		cacheCount++
		return nil
	}

	segLen := 0
	if s.Obs != nil {
		if segLen = s.Obs.SegmentLen; segLen <= 0 {
			segLen = s.M
		}
	}
	var segStartIO int64
	computedInSeg := 0

	for _, v := range schedule {
		if isInput(v) {
			return res, fmt.Errorf("pebble: schedule contains input %s", g.Label(v))
		}
		if st[v]&computed != 0 {
			return res, fmt.Errorf("pebble: schedule recomputes %s", g.Label(v))
		}
		parents := g.ParentRow(v)
		// Pin parents, out of the eviction order, so they cannot evict
		// each other while assembling this computation, and step each
		// past this use.
		for _, p := range parents {
			if st[p]&computed == 0 && !isInput(p) {
				return res, fmt.Errorf("pebble: schedule computes %s before parent %s", g.Label(v), g.Label(p))
			}
			if st[p]&inCache == 0 {
				if err := load(p); err != nil {
					return res, err
				}
			} else if byNextUse {
				h.remove(int(h.pos[p]))
			} else {
				list.unlink(p)
			}
			if byNextUse {
				next[p]++ // usePos[next[p]] was this position
			} else {
				left[p]--
			}
		}
		// Make room for the result.
		if err := ensureRoom(); err != nil {
			return res, err
		}
		// Unpin parents: they re-enter the heap with their next uses, or
		// the list as its newest entries in row order.
		for _, p := range parents {
			if byNextUse {
				h.push(evictEntry{key: usePos[next[p]], v: p})
			} else {
				list.push(p)
			}
		}
		st[v] |= computed | inCache
		cacheCount++
		res.Computed++
		output := v >= outLo
		if output {
			// Outputs must end up in slow memory; write eagerly (the
			// optimal offline choice writes each output exactly once).
			res.Writes++
			st[v] |= inSlow
		}
		if segLen > 0 {
			if computedInSeg++; computedInSeg >= segLen {
				s.Obs.SegmentIO.Observe(float64(res.IO() - segStartIO))
				segStartIO = res.IO()
				computedInSeg = 0
			}
		}
		if !output && !usedAgain(v) {
			// Useless vertex (cannot happen in G_r, but keep the cache
			// tidy if it does): drop immediately.
			st[v] &^= inCache
			cacheCount--
			continue
		}
		if byNextUse {
			h.push(evictEntry{key: usePos[next[v]], v: v})
		} else {
			list.push(v)
		}
	}
	// Completion check: every output computed (and therefore written).
	for v := outLo; int(v) < n; v++ {
		if st[v]&computed == 0 {
			return res, fmt.Errorf("pebble: schedule never computes output %s", g.Label(v))
		}
	}
	if in := s.Obs; in != nil {
		if computedInSeg > 0 {
			in.SegmentIO.Observe(float64(res.IO() - segStartIO))
		}
		in.Reads.Add(res.Reads)
		in.Writes.Add(res.Writes)
	}
	return res, nil
}
