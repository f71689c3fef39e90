package main

import (
	"sort"
	"time"

	"github.com/activexml/axml/internal/telemetry"
)

// Layer terms an operation's wall time is split into. Benchmark-side
// spans are named after the term they measure ("repo.get", "render");
// engine spans (core.Options.Tracer) map through engineTerm.
const (
	termUnattributed = "unattributed"
	termCoreOther    = "core.other"
)

// engineTerm charges each engine span kind to a layer term. "layer" and
// "evaluate" self time is the NFQA loop's own bookkeeping — per-round
// query rewriting and splicing responses into the document — and is
// reported as core.other.
var engineTerm = map[string]string{
	"op":            termUnattributed,
	"core.evaluate": termCoreOther,
	"evaluate":      termCoreOther,
	"layer":         termCoreOther,
	"analysis":      "core.analysis",
	"guide-build":   "fguide.build",
	"detect":        "core.detect",
	"plan":          "plan.plan",
	"invoke":        "core.invoke",
	"attempt":       "core.invoke",
	"result-eval":   "core.result_eval",
}

// termOf maps a span name to its layer term; benchmark-side spans carry
// their term as their name.
func termOf(name string) string {
	if t, ok := engineTerm[name]; ok {
		return t
	}
	return name
}

// opTrace records one traced operation: an "op" root span, one
// benchmark-side child span around each call into a layer, and the
// engine's own span tree (handed the same tracer through
// core.Options.Tracer), which finish re-parents under the benchmark's
// "core.evaluate" span. A nil *opTrace is an untraced operation: every
// method is a no-op and tracer returns nil, so the engine runs with
// tracing off.
type opTrace struct {
	tr   *telemetry.Tracer
	root *telemetry.ActiveSpan
}

// opSpanCapacity bounds one operation's span ring; the largest
// operation (repo-query, ~80 rounds) emits a few hundred spans.
const opSpanCapacity = 1 << 14

func newOpTrace(traced bool) *opTrace {
	if !traced {
		return nil
	}
	tr := telemetry.NewTracer(opSpanCapacity)
	return &opTrace{tr: tr, root: tr.Start("op", 0)}
}

// tracer is the tracer to hand to the engine (nil when untraced).
func (o *opTrace) tracer() *telemetry.Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// span opens a benchmark-side span under the operation root.
func (o *opTrace) span(name string) *telemetry.ActiveSpan {
	if o == nil {
		return nil
	}
	return o.tr.Start(name, o.root.ID())
}

// finish ends the operation and returns its spans with the engine's
// root "evaluate" span nested under the benchmark's "core.evaluate"
// span, plus the root's ID.
func (o *opTrace) finish() ([]telemetry.Span, telemetry.SpanID) {
	if o == nil {
		return nil, 0
	}
	o.root.End()
	spans := o.tr.Spans(0)
	var wrapper telemetry.SpanID
	for _, s := range spans {
		if s.Name == "core.evaluate" {
			wrapper = s.ID
		}
	}
	for i := range spans {
		if spans[i].Parent == 0 && spans[i].Name == "evaluate" {
			spans[i].Parent = wrapper
		}
	}
	return spans, o.root.ID()
}

// attribute splits the root span's wall time over layer terms. Every
// instant of the root interval is charged to the innermost spans active
// at that instant, split evenly when several are (the invocation pool
// runs batch members concurrently, so sibling invoke spans overlap).
// For strictly nested, non-overlapping spans this is exactly each
// span's self time (telemetry.SpanNode.Self); unlike summing Self, it
// also partitions time under concurrent children, so the terms always
// add up to the root's wall time. Whatever no layer span covers stays
// with the root and is reported as termUnattributed.
func attribute(spans []telemetry.Span, root telemetry.SpanID) map[string]time.Duration {
	var rootNode *telemetry.SpanNode
	var find func(ns []*telemetry.SpanNode)
	find = func(ns []*telemetry.SpanNode) {
		for _, n := range ns {
			if rootNode != nil {
				return
			}
			if n.ID == root {
				rootNode = n
				return
			}
			find(n.Children)
		}
	}
	find(telemetry.BuildTree(spans))
	if rootNode == nil {
		return nil
	}
	type interval struct {
		start, end int64 // ns from the root's start
		depth      int
		term       string
	}
	base := rootNode.Start
	limit := int64(rootNode.Wall)
	var ivs []interval
	var walk func(n *telemetry.SpanNode, depth int)
	walk = func(n *telemetry.SpanNode, depth int) {
		s := int64(n.Start.Sub(base))
		e := s + int64(n.Wall)
		if s < 0 {
			s = 0
		}
		if e > limit {
			e = limit
		}
		if e > s {
			ivs = append(ivs, interval{s, e, depth, termOf(n.Name)})
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(rootNode, 0)

	bounds := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		bounds = append(bounds, iv.start, iv.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	acc := map[string]float64{}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi == lo {
			continue
		}
		deepest, k := -1, 0
		for _, iv := range ivs {
			if iv.start <= lo && iv.end >= hi {
				switch {
				case iv.depth > deepest:
					deepest, k = iv.depth, 1
				case iv.depth == deepest:
					k++
				}
			}
		}
		share := float64(hi-lo) / float64(k)
		for _, iv := range ivs {
			if iv.depth == deepest && iv.start <= lo && iv.end >= hi {
				acc[iv.term] += share
			}
		}
	}
	out := make(map[string]time.Duration, len(acc))
	for t, ns := range acc {
		out[t] = time.Duration(ns)
	}
	return out
}

// spanWalls collects the wall times of every span with the given name.
func spanWalls(spans []telemetry.Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Wall)
		}
	}
	return out
}
