package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// spanStream renders the tracer's spans in record order without the
// run-dependent fields (Start, Wall, Worker) and without the span kinds
// named in drop. Span IDs become positions in the rendered stream, so
// two runs that differ only in timing, pool width or dropped spans
// compare equal.
func spanStream(t *testing.T, tr *telemetry.Tracer, drop ...string) []string {
	t.Helper()
	if n := tr.Dropped(); n > 0 {
		t.Fatalf("span ring dropped %d spans; the stream is incomplete", n)
	}
	var kept []telemetry.Span
	pos := map[telemetry.SpanID]int{}
	for _, s := range tr.Spans(0) {
		if slices.Contains(drop, s.Name) {
			continue
		}
		pos[s.ID] = len(kept)
		kept = append(kept, s)
	}
	out := make([]string, len(kept))
	for i, s := range kept {
		parent, ok := pos[s.Parent]
		if !ok {
			parent = -1
		}
		out[i] = fmt.Sprintf("%s parent=%d shard=%d virtual=%v trace=%q %v",
			s.Name, parent, s.Shard, s.Virtual, s.Trace, s.Attrs)
	}
	return out
}

// invokeBatches returns the sizes of the invocation batches in spans, in
// order of first appearance: a batch is the invoke spans sharing one
// parent and round.
func invokeBatches(spans []telemetry.Span) []int {
	type key struct {
		parent telemetry.SpanID
		round  string
	}
	slot := map[key]int{}
	var sizes []int
	for _, s := range spans {
		if s.Name != "invoke" {
			continue
		}
		k := key{s.Parent, s.Attr("round")}
		i, ok := slot[k]
		if !ok {
			i = len(sizes)
			slot[k] = i
			sizes = append(sizes, 0)
		}
		sizes[i]++
	}
	return sizes
}

// TestTraceSpanKinds: the span stream carries what an explain reader
// needs per kind — layer membership, detect target and call counts,
// invoke service, path, round and push — and its counts match Stats.
func TestTraceSpanKinds(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 6
	spec.HiddenHotels = 2
	spec.PushCapable = true
	w := workload.Hotels(spec)
	tr := telemetry.NewTracer(0)
	opt := Options{
		Strategy: LazyNFQTyped, Schema: w.Schema,
		Layering: true, Parallel: true, Push: true,
		Tracer: tr,
	}
	out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans(0)
	var layers, detects, invokes, pushed int
	for _, s := range spans {
		switch s.Name {
		case "layer":
			layers++
			if s.Attr("members") == "" {
				t.Errorf("layer span misses its member count: %+v", s)
			}
		case "detect":
			detects++
			if s.Attr("target") == "" || s.Attr("calls") == "" {
				t.Errorf("detect span incomplete: %+v", s)
			}
		case "invoke":
			invokes++
			if s.Attr("service") == "" || s.Attr("path") == "" || s.Attr("round") == "" {
				t.Errorf("invoke span incomplete: %+v", s)
			}
			if s.Attr("pushed") == "true" {
				pushed++
			}
		}
	}
	if layers < 2 {
		t.Errorf("layers traced = %d", layers)
	}
	if detects == 0 || detects != out.Stats.RelevanceQueries {
		t.Errorf("detect spans %d vs relevance queries %d", detects, out.Stats.RelevanceQueries)
	}
	if invokes != out.Stats.CallsInvoked {
		t.Errorf("invoke spans %d vs calls %d", invokes, out.Stats.CallsInvoked)
	}
	if pushed != out.Stats.PushedCalls {
		t.Errorf("pushed invoke spans %d vs stat %d", pushed, out.Stats.PushedCalls)
	}
	// Every invocation round is one batch of invoke spans.
	if sizes := invokeBatches(spans); len(sizes) != out.Stats.Rounds {
		t.Errorf("invoke batches %v vs %d rounds", sizes, out.Stats.Rounds)
	}
	// The explain rendering covers every kind.
	var buf bytes.Buffer
	telemetry.WriteTree(&buf, spans)
	for _, kind := range []string{"layer", "detect", "invoke"} {
		if !strings.Contains(buf.String(), kind) {
			t.Fatalf("explain tree misses %s spans:\n%s", kind, buf.String())
		}
	}
}

func TestTraceSequentialAndNaive(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	tr := telemetry.NewTracer(0)
	out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{Strategy: NaiveFixpoint, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var invokes int
	for _, s := range tr.Spans(0) {
		if s.Name != "invoke" {
			continue
		}
		invokes++
		if s.Attr("target") != "" {
			t.Errorf("naive invocations have no target: %+v", s)
		}
	}
	if invokes != out.Stats.CallsInvoked {
		t.Fatalf("traced %d of %d invocations", invokes, out.Stats.CallsInvoked)
	}
}

// TestTraceBatchWidth: on a world whose rating layers are as wide as
// the document, the invoke spans of one round form a batch of several
// calls, and the batches account for every invocation.
func TestTraceBatchWidth(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Hotels = 8
	spec.TargetEvery = 1
	spec.IntensionalRatingEvery = 1
	spec.RatingChainDepth = 2
	w := workload.Hotels(spec)
	tr := telemetry.NewTracer(0)
	out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, Options{
		Strategy: LazyNFQTyped, Schema: w.Schema, Layering: true, Parallel: true, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := invokeBatches(tr.Spans(0))
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total != out.Stats.CallsInvoked || len(sizes) != out.Stats.Rounds {
		t.Fatalf("batches %v vs %d calls in %d rounds", sizes, out.Stats.CallsInvoked, out.Stats.Rounds)
	}
	if len(sizes) == 0 || slices.Max(sizes) < 2 {
		t.Fatalf("no invocation batch wider than one call: %v", sizes)
	}
}
