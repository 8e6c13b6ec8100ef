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
	// FIFO evicts the value that entered cache earliest.
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

// evictEntry is one cache-resident, unpinned value in the eviction
// heap. Its key is fixed when the value enters the heap: a value's next
// use and last touch change only while it is pinned as a parent, and a
// pinned value is out of the heap. The key is the next use for MIN and
// the negated last touch for LRU, so the victim is always the entry
// with the largest key. FIFO shares LRU's key, so today it evicts the
// least recently used value rather than the one that entered the cache
// first; carrying a cached parent's heap key through its pin would
// make it FIFO.
type evictEntry struct {
	key int64
	v   cdag.V
}

// evictHeap is a max-heap on key that records each vertex's position
// in pos (-1 when absent). push, pop and remove sift exactly as
// container/heap's Push, Pop and Remove do, step for step. The order
// matters: MIN keys tie (two parents of one vertex share a next use),
// and which tied entry surfaces decides the victims and so Writes.
type evictHeap struct {
	e   []evictEntry
	pos []int32
}

func (h *evictHeap) less(i, j int) bool { return h.e[i].key > h.e[j].key }

func (h *evictHeap) swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.pos[h.e[i].v] = int32(i)
	h.pos[h.e[j].v] = int32(j)
}

func (h *evictHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *evictHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *evictHeap) push(x evictEntry) {
	h.pos[x.v] = int32(len(h.e))
	h.e = append(h.e, x)
	h.up(len(h.e) - 1)
}

// pop removes and returns the entry with the largest key.
func (h *evictHeap) pop() cdag.V {
	n := len(h.e) - 1
	h.swap(0, n)
	h.down(0, n)
	return h.dropLast()
}

// remove deletes the entry at index i.
func (h *evictHeap) remove(i int) {
	n := len(h.e) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.dropLast()
}

func (h *evictHeap) dropLast() cdag.V {
	v := h.e[len(h.e)-1].v
	h.e = h.e[:len(h.e)-1]
	h.pos[v] = -1
	return v
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
// dense per-vertex tables, however long the schedule.
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

	// Next-use lists: usePos holds, for every vertex, the schedule
	// positions where it is a parent, in increasing order and closed by
	// a `never` sentinel; next[v] indexes v's next use. Count first so
	// both tables are allocated once at their final size.
	next := make([]int32, n)
	uses := n // one sentinel per vertex
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
			next[p]++
		}
	}
	usePos := make([]int32, uses)
	end := int32(0)
	for v := range next {
		end += next[v] + 1
		next[v] = end - 1
		usePos[end-1] = never
	}
	// Fill back to front so each list comes out in increasing order and
	// next[v] ends at the list's first entry.
	for pos := len(schedule) - 1; pos >= 0; pos-- {
		for _, p := range g.ParentRow(schedule[pos]) {
			next[p]--
			usePos[next[p]] = int32(pos)
		}
	}

	st := make([]uint8, n)
	for i := uint32(0); i < nIn; i++ {
		st[aIn+cdag.V(i)] = inSlow // inputs start valid in slow memory
		st[bIn+cdag.V(i)] = inSlow
	}
	h := &evictHeap{e: make([]evictEntry, 0, min(s.M, n)+1), pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	// LRU and FIFO key an entry by its last touch, fixed when it is
	// pinned or computed; MIN keys it by its next use, fixed once the
	// computation that touched it has advanced the next-use pointers.
	byNextUse := s.P == MIN

	var res Result
	var clock int64
	cacheCount := 0
	pinned := make([]evictEntry, 0, 16)

	evictOne := func() error {
		if len(h.e) == 0 {
			return fmt.Errorf("pebble: cache overcommitted: M = %d too small for a single computation", s.M)
		}
		victim := h.pop()
		st[victim] &^= inCache
		cacheCount--
		res.Evictions++
		if st[victim]&inSlow == 0 && usePos[next[victim]] != never {
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
	load := func(v cdag.V) error {
		if st[v]&inCache != 0 {
			return nil
		}
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

	for pos, v := range schedule {
		if isInput(v) {
			return res, fmt.Errorf("pebble: schedule contains input %s", g.Label(v))
		}
		if st[v]&computed != 0 {
			return res, fmt.Errorf("pebble: schedule recomputes %s", g.Label(v))
		}
		parents := g.ParentRow(v)
		// Pin parents so they cannot evict each other while assembling
		// this computation.
		pinned = pinned[:0]
		for _, p := range parents {
			if st[p]&computed == 0 && !isInput(p) {
				return res, fmt.Errorf("pebble: schedule computes %s before parent %s", g.Label(v), g.Label(p))
			}
			if err := load(p); err != nil {
				return res, err
			}
			if i := h.pos[p]; i >= 0 {
				h.remove(int(i))
			}
			clock++
			pinned = append(pinned, evictEntry{key: -clock, v: p})
		}
		// Advance parents' next-use pointers past this position.
		for _, p := range parents {
			for usePos[next[p]] <= int32(pos) {
				next[p]++
			}
		}
		// Make room for the result.
		if err := ensureRoom(); err != nil {
			return res, err
		}
		// Unpin parents: they re-enter the heap with their updated keys.
		for _, e := range pinned {
			if byNextUse {
				e.key = int64(usePos[next[e.v]])
			}
			h.push(e)
		}
		st[v] |= computed | inCache
		clock++
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
		if usePos[next[v]] == never && !output {
			// Useless vertex (cannot happen in G_r, but keep the cache
			// tidy if it does): drop immediately.
			st[v] &^= inCache
			cacheCount--
			continue
		}
		e := evictEntry{key: -clock, v: v}
		if byNextUse {
			e.key = int64(usePos[next[v]])
		}
		h.push(e)
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
