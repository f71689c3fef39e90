package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTracerBasics(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("evaluate", 0)
	root.SetAttr("strategy", "lazy-nfq")
	child := tr.Start("detect", root.ID())
	child.SetInt("calls", 3)
	child.AddVirtual(10 * time.Millisecond)
	child.End()
	child.End() // idempotent
	root.End()

	spans := tr.Spans(0)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Finish order: the child ended first.
	if spans[0].Name != "detect" || spans[1].Name != "evaluate" {
		t.Fatalf("order: %s, %s", spans[0].Name, spans[1].Name)
	}
	d := spans[0]
	if d.Parent != spans[1].ID || d.Virtual != 10*time.Millisecond {
		t.Fatalf("child span wrong: %+v", d)
	}
	if d.Attr("calls") != "3" || d.Attr("missing") != "" {
		t.Fatalf("attrs wrong: %+v", d.Attrs)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestNilTracerSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", 0)
	s.SetAttr("k", "v")
	s.SetInt("n", 1)
	s.AddVirtual(time.Second)
	s.End()
	if s != nil {
		t.Fatal("nil tracer must return a nil active span")
	}
	if tr.Emit(Span{Name: "y"}) != 0 {
		t.Fatal("nil tracer Emit must return 0")
	}
	tr.SetSink(func(Span) {})
	if tr.Len() != 0 || tr.Spans(0) != nil {
		t.Fatal("nil tracer must be empty")
	}
}

// TestRingBuffer: the tracer retains only the most recent capacity spans
// but keeps counting all of them.
func TestRingBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Span{Name: "s", Start: time.Now()})
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
	spans := tr.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want 4", len(spans))
	}
	// Oldest-first: the retained IDs are the last four assigned.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID != spans[i-1].ID+1 {
			t.Fatalf("retained spans out of order: %v", spans)
		}
	}
	if spans[len(spans)-1].ID != 10 {
		t.Fatalf("newest retained = %d, want 10", spans[len(spans)-1].ID)
	}
	if got := tr.Spans(2); len(got) != 2 || got[1].ID != 10 {
		t.Fatalf("Spans(2) = %v", got)
	}
}

// TestJSONLRoundTrip emits a realistic span tree, streams it through the
// JSONL sink, parses it back, and requires the reconstructed tree to be
// identical (attribute order is canonicalised to sorted-by-key on both
// sides of the comparison).
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(16)
	tr.SetSink(SinkJSONL(&buf))

	eval := tr.Start("evaluate", 0)
	eval.SetAttr("strategy", "lazy-nfq")
	layer := tr.Start("layer", eval.ID())
	layer.SetInt("layer", 0)
	tr.Emit(Span{
		Parent:  layer.ID(),
		Name:    "detect",
		Shard:   1,
		Start:   time.Now(),
		Wall:    42 * time.Microsecond,
		Virtual: time.Millisecond,
		Attrs:   []Attr{{Key: "calls", Value: "2"}, {Key: "round", Value: "1"}},
	})
	tr.Emit(Span{
		Parent:  layer.ID(),
		Name:    "invoke",
		Worker:  2,
		Start:   time.Now(),
		Wall:    100 * time.Microsecond,
		Virtual: 2 * time.Millisecond,
		Attrs:   []Attr{{Key: "service", Value: "getRating"}},
	})
	layer.End()
	eval.AddVirtual(5 * time.Millisecond)
	eval.End()

	emitted := tr.Spans(0)
	decoded, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(emitted) {
		t.Fatalf("decoded %d spans, want %d", len(decoded), len(emitted))
	}

	canon := func(spans []Span) []Span {
		out := make([]Span, len(spans))
		for i, s := range spans {
			// JSON truncates to microseconds and canonicalises attribute
			// order; apply the same to the emitted side.
			s.Start = s.Start.Truncate(time.Microsecond)
			s.Wall = s.Wall.Truncate(time.Microsecond)
			attrs := append([]Attr(nil), s.Attrs...)
			for j := 1; j < len(attrs); j++ {
				for k := j; k > 0 && attrs[k].Key < attrs[k-1].Key; k-- {
					attrs[k], attrs[k-1] = attrs[k-1], attrs[k]
				}
			}
			s.Attrs = attrs
			out[i] = s
		}
		return out
	}
	want, got := canon(emitted), canon(decoded)
	for i := range want {
		if !want[i].Start.Equal(got[i].Start) {
			t.Fatalf("span %d start drifted: %v vs %v", i, want[i].Start, got[i].Start)
		}
		want[i].Start, got[i].Start = time.Time{}, time.Time{}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// The reconstructed tree has the same shape.
	wantTree := treeShape(BuildTree(emitted))
	gotTree := treeShape(BuildTree(decoded))
	if wantTree != gotTree {
		t.Fatalf("tree shape changed:\n got %s\nwant %s", gotTree, wantTree)
	}
	if !strings.Contains(wantTree, "evaluate(layer(detect,invoke))") {
		t.Fatalf("unexpected tree shape %s", wantTree)
	}
}

// treeShape renders a span tree as name(child,child) text.
func treeShape(roots []*SpanNode) string {
	var sb strings.Builder
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		sb.WriteString(n.Name)
		if len(n.Children) > 0 {
			sb.WriteString("(")
			for i, c := range n.Children {
				if i > 0 {
					sb.WriteString(",")
				}
				walk(c)
			}
			sb.WriteString(")")
		}
	}
	for i, r := range roots {
		if i > 0 {
			sb.WriteString(";")
		}
		walk(r)
	}
	return sb.String()
}

func TestDecodeJSONLBadInput(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader("{nope}\n")); err == nil {
		t.Fatal("bad JSONL accepted")
	}
	spans, err := DecodeJSONL(strings.NewReader(""))
	if err != nil || len(spans) != 0 {
		t.Fatalf("empty input: %v, %v", spans, err)
	}
}
