package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// TestParallelTraceDeterminism: with layered parallel invocation the
// engine must emit spans deterministically, ordered by (layer, round,
// shard) — two identical runs see identical streams.
func TestParallelTraceDeterminism(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 8
	spec.HiddenHotels = 2
	run := func() *telemetry.Tracer {
		w := workload.Hotels(spec)
		tr := telemetry.NewTracer(0)
		opt := Options{Strategy: LazyNFQ, Layering: true, Parallel: true, Tracer: tr}
		if _, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := run()
	a := spanStream(t, ref)
	for i := 0; i < 3; i++ {
		b := spanStream(t, run())
		if len(a) != len(b) {
			t.Fatalf("run %d: %d spans vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d span %d: %q vs %q", i, j, b[j], a[j])
			}
		}
	}
	// Within each layer, detect spans are ordered by (round, shard).
	type pos struct{ round, shard int }
	last := map[telemetry.SpanID]pos{}
	for _, s := range ref.Spans(0) {
		if s.Name != "detect" {
			continue
		}
		round, err := strconv.Atoi(s.Attr("round"))
		if err != nil {
			t.Fatalf("detect span round: %v", err)
		}
		if p, ok := last[s.Parent]; ok && (round < p.round ||
			(round == p.round && s.Shard <= p.shard && s.Shard != 0)) {
			t.Errorf("detect order violated: round %d shard %d after round %d shard %d",
				round, s.Shard, p.round, p.shard)
		}
		last[s.Parent] = pos{round, s.Shard}
	}
}

// TestEngineSpans: an instrumented evaluation emits a span tree whose
// root accounts for the invoked-vs-pruned split and whose per-phase self
// times sum to the evaluation's total (the -explain acceptance identity).
func TestEngineSpans(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 6
	spec.HiddenHotels = 2
	w := workload.Hotels(spec)
	tr := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{
		Strategy: LazyNFQ, Layering: true, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	roots := telemetry.BuildTree(tr.Spans(0))
	if len(roots) != 1 || roots[0].Name != "evaluate" {
		t.Fatalf("want a single evaluate root, got %+v", roots)
	}
	eval := roots[0]
	if got := eval.Span.Attr("calls_invoked"); got != strconv.Itoa(out.Stats.CallsInvoked) {
		t.Errorf("calls_invoked attr = %q, stats say %d", got, out.Stats.CallsInvoked)
	}
	pruned, _ := strconv.Atoi(eval.Span.Attr("calls_pruned"))
	if pruned <= 0 {
		t.Errorf("lazy evaluation pruned nothing? attr=%q", eval.Span.Attr("calls_pruned"))
	}

	var names = map[string]int{}
	var detects, invokes int
	var selfSum time.Duration
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		names[n.Name]++
		selfSum += n.Self()
		switch n.Name {
		case "detect":
			detects++
		case "invoke":
			invokes++
			if n.Span.Attr("service") == "" {
				t.Errorf("invoke span misses service: %+v", n.Span)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(eval)
	for _, want := range []string{"analysis", "layer", "detect", "invoke", "result-eval"} {
		if names[want] == 0 {
			t.Errorf("span tree misses %q spans: %v", want, names)
		}
	}
	if detects != out.Stats.RelevanceQueries {
		t.Errorf("detect spans %d vs relevance queries %d", detects, out.Stats.RelevanceQueries)
	}
	if invokes != out.Stats.CallsInvoked {
		t.Errorf("invoke spans %d vs calls %d", invokes, out.Stats.CallsInvoked)
	}
	if selfSum != eval.Wall {
		t.Errorf("phase self times sum to %v, root wall is %v", selfSum, eval.Wall)
	}

	// Metrics agree with the outcome's stats.
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricCallsInvoked]; got != int64(out.Stats.CallsInvoked) {
		t.Errorf("metric calls = %d, stats %d", got, out.Stats.CallsInvoked)
	}
	if got := snap.Counters[telemetry.MetricCallsPruned]; got != int64(pruned) {
		t.Errorf("metric pruned = %d, attr %d", got, pruned)
	}
	if snap.Counters[telemetry.MetricEvaluations] != 1 {
		t.Errorf("evaluations counter = %d", snap.Counters[telemetry.MetricEvaluations])
	}
	if snap.Histograms[telemetry.MetricDetectSeconds].Count == 0 {
		t.Error("detect histogram empty")
	}
	if int(snap.Histograms[telemetry.MetricInvokeWallSeconds].Count) != out.Stats.CallsInvoked {
		t.Errorf("invoke histogram count = %d, calls %d",
			snap.Histograms[telemetry.MetricInvokeWallSeconds].Count, out.Stats.CallsInvoked)
	}
}

// TestEngineSpansMemberShards: detect spans carry the detected query's
// member slot within its layer as their shard, and the (round, shard)
// stream is deterministic across runs.
func TestEngineSpansMemberShards(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 8
	spec.HiddenHotels = 2
	shape := func() []string {
		w := workload.Hotels(spec)
		tr := telemetry.NewTracer(0)
		if _, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{
			Strategy: LazyNFQ, Layering: true, Parallel: true, Tracer: tr,
		}); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range tr.Spans(0) {
			if s.Name == "detect" || s.Name == "invoke" {
				out = append(out, fmt.Sprintf("%s/%d/%s/%s",
					s.Name, s.Shard, s.Attr("round"), s.Attr("target")))
			}
		}
		return out
	}
	a := shape()
	b := shape()
	if len(a) == 0 {
		t.Fatal("no detect/invoke spans emitted")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("span stream not deterministic:\n%v\n%v", a, b)
	}
	var sharded bool
	for _, s := range a {
		if len(s) > 7 && s[:7] == "detect/" && s[7] != '0' {
			sharded = true
		}
	}
	if !sharded {
		t.Error("no detect span carried a non-zero shard")
	}
}
