package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// TestGuidedMatchesDirectDetection is the differential net for guided
// relevance detection, whose residual matchers keep their memo tables
// across NFQA rounds: over random worlds and the strategy × speculation
// space, an F-guide run must agree with direct detection on the results,
// on Complete and on the invoke-span stream (the invoked call sequence
// with its rounds, paths and virtual costs).
func TestGuidedMatchesDirectDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is not short")
	}
	// Every span kind except invoke and its retry attempts: the guided
	// run adds a guide-build span and skips detect spans for queries the
	// guide yields no candidates for, neither of which is a behaviour
	// difference.
	drop := []string{"evaluate", "analysis", "guide-build", "layer", "detect", "plan", "result-eval"}
	for seed := int64(0); seed < 24; seed++ {
		w := workload.Hotels(randomSpec(seed))
		for _, strategy := range []Strategy{LazyNFQ, LazyNFQTyped} {
			for _, speculative := range []bool{false, true} {
				name := fmt.Sprintf("seed %d %v speculative=%v", seed, strategy, speculative)
				run := func(guided bool) (*Outcome, []string) {
					tr := telemetry.NewTracer(0)
					opt := Options{
						Strategy:    strategy,
						Speculative: speculative,
						UseGuide:    guided,
						Tracer:      tr,
					}
					if strategy == LazyNFQTyped {
						opt.Schema = w.Schema
					}
					out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
					if err != nil {
						t.Fatalf("%s guided=%v: %v", name, guided, err)
					}
					return out, spanStream(t, tr, drop...)
				}
				direct, directSpans := run(false)
				guided, guidedSpans := run(true)
				if got, want := resultKeys(guided), resultKeys(direct); got != want {
					t.Fatalf("%s: guided results differ\n got %q\nwant %q", name, got, want)
				}
				if guided.Complete != direct.Complete {
					t.Fatalf("%s: guided Complete=%v, direct %v", name, guided.Complete, direct.Complete)
				}
				if !slices.Equal(guidedSpans, directSpans) {
					t.Fatalf("%s: invoke streams differ\n got %q\nwant %q", name, guidedSpans, directSpans)
				}
				if len(directSpans) != direct.Stats.CallsInvoked {
					t.Fatalf("%s: %d invoke spans for %d calls", name, len(directSpans), direct.Stats.CallsInvoked)
				}
			}
		}
	}
}
