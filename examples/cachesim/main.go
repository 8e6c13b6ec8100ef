// Cache behaviour under the microscope: liveness profiles, replacement
// policies, and the price of each lost cache word, on the pebble-game
// machine the paper's bounds govern.
//
//	go run ./examples/cachesim
package main

import (
	"fmt"
	"log"

	"pathrouting"
)

func main() {
	alg := pathrouting.Strassen()
	r := 4
	g, err := pathrouting.NewCDAG(alg, r)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Strassen G_%d: %d vertices, n = %d\n\n", r, g.NumVertices(), 1<<r)

	// 1. Liveness: what cache size makes each schedule I/O-free?
	fmt.Println("live-set profiles (peak = smallest M with compulsory-only I/O):")
	fmt.Printf("%-8s %-8s %-10s\n", "schedule", "peak", "average")
	for _, kind := range []pathrouting.ScheduleKind{pathrouting.ScheduleDFS, pathrouting.ScheduleRankByRank} {
		name := "dfs"
		if kind == pathrouting.ScheduleRankByRank {
			name = "rank"
		}
		sched, err := pathrouting.BuildSchedule(g, kind, nil)
		if err != nil {
			log.Fatal(err)
		}
		lv, err := pathrouting.AnalyzeLiveness(g, sched)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-8d %-10.1f\n", name, lv.Peak, lv.Average)
	}

	// 2. Policies: MIN is the offline optimum; LRU pays for not seeing
	// the future. FIFO prints LRU's numbers: the simulator's FIFO still
	// evicts in LRU order (see pebble.FIFO).
	fmt.Println("\nreplacement policies at M = 48 (DFS schedule):")
	fmt.Printf("%-8s %-10s %-10s %-10s\n", "policy", "reads", "writes", "IO")
	for _, pol := range []pathrouting.Policy{pathrouting.MIN, pathrouting.LRU, pathrouting.FIFO} {
		res, err := pathrouting.MeasureIO(alg, r, 48, pol, pathrouting.ScheduleDFS)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8v %-10d %-10d %-10d\n", pol, res.Reads, res.Writes, res.IO())
	}

	// 3. The M-sweep: every halving of cache multiplies I/O, down to the
	// feasibility floor.
	fmt.Println("\ncache-size sweep (DFS + MIN), against the Theorem 1 bound:")
	fmt.Printf("%-8s %-12s %-12s %-8s\n", "M", "IO", "Thm1 LB", "IO/LB")
	for m := 1024; m >= 6; m /= 2 {
		res, err := pathrouting.MeasureIO(alg, r, m, pathrouting.MIN, pathrouting.ScheduleDFS)
		if err != nil {
			fmt.Printf("%-8d %v\n", m, err)
			continue
		}
		lb := pathrouting.SequentialLowerBound(alg, float64(int(1)<<r), float64(m))
		fmt.Printf("%-8d %-12d %-12.0f %-8.2f\n", m, res.IO(), lb, float64(res.IO())/lb)
	}
	fmt.Println("\n(M below the max fan-in + 1 is infeasible: a computation cannot")
	fmt.Println(" hold its operands; the paper's machine model needs M ≥ 5 here.)")
}
