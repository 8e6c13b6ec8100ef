package main

// The command-line workloads: routecheck-k5 and paperrepro-quick run
// the real binaries and time each run from exec to exit. Their traced
// runs replay the same work as spans: routecheck's sequence of public
// calls in-process, and paperrepro one experiment per process.

import (
	"fmt"
	"strconv"
	"strings"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/routing"
)

// cliSample folds one timed command run into the end-to-end samples.
func (r *run) cliSample(ps procStat) {
	r.latency = append(r.latency, ps.wall)
	r.cpuSec += ps.cpu
	r.rssMB = append(r.rssMB, ps.rssMB)
}

// checkRoutecheck checks a routecheck run of Strassen's full routing
// at depth k: its stats line and the verdict lines.
func checkRoutecheck(out string, k int) error {
	want := statsLine(goldenStats[k])
	if !strings.Contains(out, "\n"+want+"\n") {
		return fmt.Errorf("routecheck k=%d: no %q line in output", k, want)
	}
	for _, line := range []string{"Lemma 4 chain-usage counts verified exact.", "VERIFIED: "} {
		if !strings.Contains(out, line) {
			return fmt.Errorf("routecheck k=%d: no %q line in output", k, line)
		}
	}
	return nil
}

func routecheckArgs(k int) []string {
	return []string{"-alg", "strassen", "-k", strconv.Itoa(k), "-orbits", "-workers", "2"}
}

// routecheckK5 runs `routecheck -alg strassen -k 5 -orbits -workers 2`.
// Set-up is the same command at k = 1 (process start, package
// initialisation and a trivial instance), run before each operation so
// its samples span the run as the operations' do.
func routecheckK5(r *run) error {
	k := 5
	if r.smoke {
		k = 3
	}
	bin := r.tools["routecheck"]
	elapsed, n := r.measure(r.budget(), 2, func(int) {
		if !r.trace {
			ps, err := r.exec(bin, routecheckArgs(1)...)
			if err == nil {
				err = checkRoutecheck(ps.out, 1)
			}
			if r.op(err) {
				r.setup = append(r.setup, ps.wall)
			}
		}
		ps, err := r.exec(bin, routecheckArgs(k)...)
		if err == nil {
			err = checkRoutecheck(ps.out, k)
		}
		if r.op(err) {
			r.cliSample(ps)
		}
	})
	r.addWindow(elapsed, n)
	r.timing("verify_s", "s", 1, r.latency)
	if !r.trace {
		r.timing("setup_s", "s", 1, r.setup)
		r.note("%-22s %10.1f MB   median of %d runs", "peak_rss_mb", median(r.rssMB), len(r.rssMB))
		return nil
	}

	r.untraced = r.latency
	r.measure(r.budget(), 2, func(int) {
		rep := r.tr.begin(r.root, "verify")
		r.op(routecheckReplica(r, rep, k))
		rep.finish()
	})
	r.traceRatios("verify", r.untraced)
	r.scanRate()
	return nil
}

// routecheckReplica makes routecheck's calls for one full-routing
// verification in routecheck's order, each inside a span: the scan
// (see scanReplica), the chain-usage check, and the sequential
// pair-path enumeration behind the hit histogram.
func routecheckReplica(r *run, rep *span, k int) error {
	g, rt, err := scanReplica(r, rep, k)
	if err != nil {
		return err
	}
	if err := r.tr.traced(rep, "routing.chain_usage", func(*span) error { return rt.VerifyChainUsage() }); err != nil {
		return err
	}
	return r.tr.traced(rep, "routing.enumerate", func(sp *span) error {
		paths, total, peak := histogram(g, rt)
		sp.set("paths", paths)
		want := goldenStats[k]
		if paths != want.NumPaths || total != want.TotalHits || peak != want.MaxVertexHits {
			return fmt.Errorf("histogram k=%d: paths=%d hits=%d peak=%d, want %d %d %d",
				k, paths, total, peak, want.NumPaths, want.TotalHits, want.MaxVertexHits)
		}
		return nil
	})
}

// histogram is routecheck's hit histogram: every pair path enumerated
// sequentially, hits counted per vertex and bucketed by global rank.
// It returns the paths enumerated, the total hits and the largest
// per-vertex count.
func histogram(g *cdag.Graph, rt *routing.Router) (paths, total, peak int64) {
	hits := make([]int64, g.NumVertices())
	rt.ForEachPairPath(func(_ bilinear.Side, _, _ int64, path []cdag.V) {
		paths++
		for _, v := range path {
			hits[v]++
		}
	})
	byRank := map[int][2]int64{}
	for v, h := range hits {
		rank := g.GlobalRank(cdag.V(v))
		cur := byRank[rank]
		cur[0] = max(cur[0], h)
		cur[1] += h
		byRank[rank] = cur
	}
	for _, c := range byRank {
		peak = max(peak, c[0])
		total += c[1]
	}
	return paths, total, peak
}

// experiments are paperrepro's experiment IDs, in its order.
var experiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}

// checkRepro checks a full `paperrepro -quick` output.
func checkRepro(out string) error {
	if err := checkE1(out); err != nil {
		return err
	}
	if n := countLines(out, "OK:"); n != goldenOKLines {
		return fmt.Errorf("paperrepro: %d lines with OK:, want %d", n, goldenOKLines)
	}
	if n := countLines(out, "verified"); n != goldenVerifiedLines {
		return fmt.Errorf("paperrepro: %d lines with verified, want %d", n, goldenVerifiedLines)
	}
	return nil
}

// paperreproQuick runs `paperrepro -quick`. Set-up is its smallest
// experiment, E9, alone (process start and package initialisation
// with little work after them), run before each operation.
func paperreproQuick(r *run) error {
	bin := r.tools["paperrepro"]
	elapsed, n := r.measure(r.budget(), 1, func(int) {
		if !r.trace {
			ps, err := r.exec(bin, "-quick", "-experiment", "E9")
			if err == nil && sha(ps.out) != goldenE9 {
				err = fmt.Errorf("paperrepro E9 output changed (sha256 %s)", sha(ps.out))
			}
			if r.op(err) {
				r.setup = append(r.setup, ps.wall)
			}
		}
		ps, err := r.exec(bin, "-quick")
		if err == nil {
			err = checkRepro(ps.out)
		}
		if r.op(err) {
			r.cliSample(ps)
		}
	})
	r.addWindow(elapsed, n)
	r.timing("repro_s", "s", 1, r.latency)
	if !r.trace {
		r.timing("setup_s", "s", 1, r.setup)
		r.note("%-22s %10.1f MB   median of %d runs", "peak_rss_mb", median(r.rssMB), len(r.rssMB))
		return nil
	}

	r.untraced = r.latency
	r.measure(r.budget(), 1, func(int) {
		rep := r.tr.begin(r.root, "repro")
		var all strings.Builder
		for _, e := range experiments {
			err := r.tr.traced(rep, "paperrepro."+e, func(*span) error {
				ps, err := r.exec(bin, "-quick", "-experiment", e)
				all.WriteString(ps.out)
				return err
			})
			r.op(err)
		}
		rep.finish()
		r.op(checkRepro(all.String()))
	})
	r.traceRatios("repro", r.untraced)
	return nil
}
