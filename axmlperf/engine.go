package main

import (
	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/telemetry"
)

// observeEngine records one traced evaluation's engine counters
// (core.Stats, as returned to the caller) on its sample.
func observeEngine(s *sample, st core.Stats) {
	s.observe("core.relevance_queries_per_op", float64(st.RelevanceQueries))
	s.observe("fguide.candidates_per_op", float64(st.GuideCandidates))
	s.observe("pattern.nodes_visited_per_op", float64(st.NodesVisited))
	s.observe("pattern.memo_hits_per_op", float64(st.MemoHits))
	s.observe("pattern.subtrees_pruned_per_op", float64(st.SubtreesPruned))
	s.observe("tree.final_nodes", float64(st.FinalSize))
}

// traceOp finishes a traced operation: its wall time split into layer
// terms, and the spans for workload-specific readings.
func traceOp(s *sample, ot *opTrace) []telemetry.Span {
	spans, root := ot.finish()
	for _, sp := range spans {
		if sp.ID == root {
			s.wall = sp.Wall
		}
	}
	s.parts = attribute(spans, root)
	return spans
}

// reportEngine derives the engine-side per-layer metrics shared by the
// workloads that evaluate: the phase self times (mean per traced
// operation), the per-operation counters, and calls per round.
func reportEngine(rep *report, all, traced []sample) {
	if len(traced) > 0 {
		for term, name := range map[string]string{
			"core.analysis":    "core.analysis_ms",
			"core.detect":      "core.detect_ms",
			"core.invoke":      "core.invoke_ms",
			"core.result_eval": "core.result_eval_ms",
		} {
			var sum float64
			for _, s := range traced {
				sum += ms(s.parts[term])
			}
			rep.set(name, sum/float64(len(traced)))
		}
		for _, key := range []string{
			"core.relevance_queries_per_op", "fguide.candidates_per_op",
			"pattern.nodes_visited_per_op", "pattern.memo_hits_per_op",
			"pattern.subtrees_pruned_per_op", "tree.final_nodes",
		} {
			rep.set(key, meanObs(traced, key))
		}
	}
	var calls, rounds int
	for _, s := range all {
		if s.fail == "" {
			calls += s.calls
			rounds += s.rounds
		}
	}
	if rounds > 0 {
		rep.set("core.calls_per_round", float64(calls)/float64(rounds))
	}
}

// meanObs is the mean of every observation under key.
func meanObs(ss []sample, key string) float64 {
	var sum float64
	var n int
	for _, s := range ss {
		for _, v := range s.obs[key] {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// allObs concatenates every observation under key.
func allObs(ss []sample, key string) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.obs[key]...)
	}
	return out
}

// setP50 reports the median of every observation under key as name.
func setP50(rep *report, ss []sample, key, name string) {
	if xs := allObs(ss, key); len(xs) > 0 {
		d := summarize(xs)
		rep.setDist(name, d.P50, d.N)
	}
}
