package pebble

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/schedule"
)

// refEntry and refHeap are the reference simulator's eviction heap:
// container/heap over (key, vertex) entries, a max-heap on key that
// records each vertex's position in pos (-1 when absent).
type refEntry struct {
	key int64
	v   cdag.V
}

type refHeap struct {
	e   []refEntry
	pos []int32
}

func (h *refHeap) Len() int           { return len(h.e) }
func (h *refHeap) Less(i, j int) bool { return h.e[i].key > h.e[j].key }

func (h *refHeap) Swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.pos[h.e[i].v] = int32(i)
	h.pos[h.e[j].v] = int32(j)
}

func (h *refHeap) Push(x any) {
	e := x.(refEntry)
	h.pos[e.v] = int32(len(h.e))
	h.e = append(h.e, e)
}

func (h *refHeap) Pop() any {
	e := h.e[len(h.e)-1]
	h.e = h.e[:len(h.e)-1]
	h.pos[e.v] = -1
	return e
}

// heapRun is the reference simulator: Run as it was when every policy
// evicted from one container/heap max-heap, keyed by next use for MIN
// and by the negated last touch for LRU and FIFO, with next-use lists
// for all three. It omits only the Instruments hooks.
func heapRun(s *Simulator, schedule []cdag.V) (Result, error) {
	g := s.G
	if s.M < 2 {
		return Result{}, fmt.Errorf("pebble: cache size M = %d < 2 cannot compute binary operations", s.M)
	}
	if err := checkScheduleLen(len(schedule)); err != nil {
		return Result{}, err
	}
	n := g.NumVertices()
	aIn, bIn := g.LayerBase(cdag.EncA, 0), g.LayerBase(cdag.EncB, 0)
	nIn := uint32(g.LayerSize(cdag.EncA, 0))
	isInput := func(v cdag.V) bool { return uint32(v-aIn) < nIn || uint32(v-bIn) < nIn }
	outLo := g.LayerBase(cdag.Dec, g.R)

	next := make([]int32, n)
	uses := n
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
	for pos := len(schedule) - 1; pos >= 0; pos-- {
		for _, p := range g.ParentRow(schedule[pos]) {
			next[p]--
			usePos[next[p]] = int32(pos)
		}
	}

	st := make([]uint8, n)
	for i := uint32(0); i < nIn; i++ {
		st[aIn+cdag.V(i)] = inSlow
		st[bIn+cdag.V(i)] = inSlow
	}
	h := &refHeap{pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	byNextUse := s.P == MIN

	var res Result
	var clock int64
	cacheCount := 0
	var pinned []refEntry

	evictOne := func() error {
		if h.Len() == 0 {
			return fmt.Errorf("pebble: cache overcommitted: M = %d too small for a single computation", s.M)
		}
		victim := heap.Pop(h).(refEntry).v
		st[victim] &^= inCache
		cacheCount--
		res.Evictions++
		if st[victim]&inSlow == 0 && usePos[next[victim]] != never {
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

	for pos, v := range schedule {
		if isInput(v) {
			return res, fmt.Errorf("pebble: schedule contains input %s", g.Label(v))
		}
		if st[v]&computed != 0 {
			return res, fmt.Errorf("pebble: schedule recomputes %s", g.Label(v))
		}
		parents := g.ParentRow(v)
		pinned = pinned[:0]
		for _, p := range parents {
			if st[p]&computed == 0 && !isInput(p) {
				return res, fmt.Errorf("pebble: schedule computes %s before parent %s", g.Label(v), g.Label(p))
			}
			if err := load(p); err != nil {
				return res, err
			}
			if i := h.pos[p]; i >= 0 {
				heap.Remove(h, int(i))
			}
			clock++
			pinned = append(pinned, refEntry{key: -clock, v: p})
		}
		for _, p := range parents {
			for usePos[next[p]] <= int32(pos) {
				next[p]++
			}
		}
		if err := ensureRoom(); err != nil {
			return res, err
		}
		for _, e := range pinned {
			if byNextUse {
				e.key = int64(usePos[next[e.v]])
			}
			heap.Push(h, e)
		}
		st[v] |= computed | inCache
		clock++
		cacheCount++
		res.Computed++
		output := v >= outLo
		if output {
			res.Writes++
			st[v] |= inSlow
		}
		if usePos[next[v]] == never && !output {
			st[v] &^= inCache
			cacheCount--
			continue
		}
		e := refEntry{key: -clock, v: v}
		if byNextUse {
			e.key = int64(usePos[next[v]])
		}
		heap.Push(h, e)
	}
	for v := outLo; int(v) < n; v++ {
		if st[v]&computed == 0 {
			return res, fmt.Errorf("pebble: schedule never computes output %s", g.Label(v))
		}
	}
	return res, nil
}

// brokenSchedules returns copies of the valid schedule sched, each
// broken one way Run must reject, with a name for each.
func brokenSchedules(g *cdag.Graph, sched []cdag.V) ([]string, [][]cdag.V) {
	k := len(sched) / 2
	with := func(parts ...[]cdag.V) []cdag.V { return slices.Concat(parts...) }
	return []string{"recompute", "child-first", "no-output", "input", "outside"},
		[][]cdag.V{
			with(sched[:k], sched[k/2:k/2+1], sched[k:]),
			with(sched[k:k+1], sched[:k], sched[k+1:]),
			sched[:len(sched)-1],
			with(sched[:k], []cdag.V{g.InputB(0)}, sched[k:]),
			with(sched[:k], []cdag.V{cdag.V(g.NumVertices())}, sched[k:]),
		}
}

// TestRunMatchesHeapReference requires Run to return the reference
// simulator's Result and error, partial results of failed runs
// included, for every golden graph under every policy at M = 3, 5, 8
// and 48: on the DFS and rank-by-rank schedules, on ten seeded random
// schedules, and on broken copies of the DFS schedule.
func TestRunMatchesHeapReference(t *testing.T) {
	for _, g := range goldenGraphs(t) {
		names := []string{"dfs", "rank"}
		scheds := [][]cdag.V{schedule.RecursiveDFS(g), schedule.RankByRank(g)}
		for seed := int64(1); seed <= 10; seed++ {
			rnd, err := schedule.RandomTopological(g, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("random seed=%d", seed))
			scheds = append(scheds, rnd)
		}
		bn, bs := brokenSchedules(g, scheds[0])
		names, scheds = append(names, bn...), append(scheds, bs...)
		for i, sched := range scheds {
			for _, m := range []int{3, 5, 8, 48} {
				var want Result
				var wantErr error
				for _, p := range []Policy{MIN, LRU, FIFO} {
					sim := &Simulator{G: g, M: m, P: p}
					got, gotErr := sim.Run(sched)
					if p != FIFO { // the reference runs FIFO exactly as LRU
						want, wantErr = heapRun(sim, sched)
					}
					if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s r=%d %s M=%d %v: Run = %+v, %v; reference = %+v, %v",
							g.Alg.Name, g.R, names[i], m, p, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}

// TestEvictHeapMatchesContainerHeap applies seeded random push, pop
// and remove sequences with heavily tied keys to evictHeap and to
// container/heap with the same order, and requires both arrays, and
// both position tables, to agree after every operation.
func TestEvictHeapMatchesContainerHeap(t *testing.T) {
	const nv = 64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &evictHeap{pos: make([]int32, nv)}
		ref := &refHeap{pos: make([]int32, nv)}
		for v := range h.pos {
			h.pos[v], ref.pos[v] = -1, -1
		}
		var out []cdag.V // vertices not in the heaps
		for v := cdag.V(0); v < nv; v++ {
			out = append(out, v)
		}
		keys := int32(1 + seed%4) // 1..4 distinct keys
		for op := 0; op < 4000; op++ {
			var what string
			switch r := rng.Intn(8); {
			case r < 4 && len(out) > 0:
				i := rng.Intn(len(out))
				v := out[i]
				out = slices.Delete(out, i, i+1)
				k := rng.Int31n(keys)
				h.push(evictEntry{key: k, v: v})
				heap.Push(ref, refEntry{key: int64(k), v: v})
				what = fmt.Sprintf("push(%d, key %d)", v, k)
			case r < 6 && len(ref.e) > 0:
				got, ok := h.pop()
				want := heap.Pop(ref).(refEntry).v
				if !ok || got != want {
					t.Fatalf("seed %d op %d: pop = %d, %v; container/heap popped %d", seed, op, got, ok, want)
				}
				out = append(out, got)
				what = "pop"
			case len(ref.e) > 0:
				i := rng.Intn(len(ref.e))
				v := ref.e[i].v
				h.remove(i)
				heap.Remove(ref, i)
				out = append(out, v)
				what = fmt.Sprintf("remove(%d)", i)
			default:
				if _, ok := h.pop(); ok {
					t.Fatalf("seed %d op %d: pop of an empty heap succeeded", seed, op)
				}
				continue
			}
			if len(h.e) != len(ref.e) {
				t.Fatalf("seed %d op %d %s: %d entries, container/heap has %d", seed, op, what, len(h.e), len(ref.e))
			}
			for i, e := range h.e {
				if int64(e.key) != ref.e[i].key || e.v != ref.e[i].v {
					t.Fatalf("seed %d op %d %s: entry %d is %+v, container/heap has %+v", seed, op, what, i, e, ref.e[i])
				}
			}
			if !slices.Equal(h.pos, ref.pos) {
				t.Fatalf("seed %d op %d %s: positions %v, container/heap has %v", seed, op, what, h.pos, ref.pos)
			}
		}
	}
}

// naiveMattson computes the stack-distance curve of the schedule's
// access trace with an explicit LRU stack, most recent value first.
func naiveMattson(g *cdag.Graph, sched []cdag.V) *MissCurve {
	mc := &MissCurve{}
	var stack []cdag.V
	access := func(v cdag.V) {
		mc.Accesses++
		i := slices.Index(stack, v)
		if i < 0 {
			mc.Compulsory++
			stack = slices.Insert(stack, 0, v)
			return
		}
		for len(mc.distHist) <= i+1 {
			mc.distHist = append(mc.distHist, 0)
		}
		mc.distHist[i+1]++
		copy(stack[1:i+1], stack[:i])
		stack[0] = v
	}
	for _, v := range sched {
		for _, p := range g.ParentRow(v) {
			access(p)
		}
		access(v)
	}
	return mc
}

// TestStackDistancesMatchNaiveMattson requires AnalyzeStackDistances'
// counts and full distance histogram to equal an explicit
// move-to-front stack's, for every catalog algorithm at r ≤ 2 and
// Strassen and classical2 at r = 3, on DFS, rank-by-rank and seeded
// random schedules.
func TestStackDistancesMatchNaiveMattson(t *testing.T) {
	var gs []*cdag.Graph
	for _, alg := range bilinear.All() {
		for r := 1; r <= 2; r++ {
			gs = append(gs, mustGraph(t, alg, r))
		}
	}
	gs = append(gs, mustGraph(t, bilinear.Strassen(), 3), mustGraph(t, bilinear.Classical(2), 3))
	trim := func(h []int64) []int64 {
		for len(h) > 0 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		return h
	}
	for _, g := range gs {
		names, scheds := goldenSchedules(t, g)
		for seed := int64(100); seed < 103; seed++ {
			rnd, err := schedule.RandomTopological(g, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("random seed=%d", seed))
			scheds = append(scheds, rnd)
		}
		for i, sched := range scheds {
			got, err := AnalyzeStackDistances(g, sched)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveMattson(g, sched)
			if got.Accesses != want.Accesses || got.Compulsory != want.Compulsory ||
				!slices.Equal(trim(got.distHist), trim(want.distHist)) {
				t.Fatalf("%s r=%d %s: accesses %d compulsory %d, %d distances; the explicit stack gives %d, %d, %d",
					g.Alg.Name, g.R, names[i], got.Accesses, got.Compulsory, len(got.Distances()),
					want.Accesses, want.Compulsory, len(want.Distances()))
			}
		}
	}
}
