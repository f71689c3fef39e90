package core

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// countingPlanner records every PlanBatch consultation and otherwise
// stays out of the way: its plans are invalid (Width 0), so the engine
// keeps the static striped schedule.
type countingPlanner struct {
	sizes  []int // batch size per PlanBatch call
	widths []int // width offered per PlanBatch call
}

func (p *countingPlanner) PlanBatch(calls []PlanCall, width int) BatchPlan {
	p.sizes = append(p.sizes, len(calls))
	p.widths = append(p.widths, width)
	return BatchPlan{}
}

func (p *countingPlanner) AllowPush(string) bool                   { return true }
func (p *countingPlanner) AdmitSpeculative(calls []PlanCall) []int { return nil }

// TestPlannerConsultedOncePerBatchRound pins when the engine consults
// InvocationPlanner.PlanBatch: exactly once per batch round — one-member
// Parallel batches, naive Parallel fixpoint rounds and speculative
// batches included — and never for sequential invocation. Each
// consultation emits exactly one "plan" span whose batch size matches
// the round's invoke spans, and the width offered is the batch size
// capped by InvokeWorkers (0 means one worker per member).
func TestPlannerConsultedOncePerBatchRound(t *testing.T) {
	type config struct {
		name string
		opt  Options
		// everyRound: every invocation round is a batch round, so
		// consultations must equal Stats.Rounds.
		everyRound bool
	}
	configs := []config{
		{"naive-parallel", Options{Strategy: NaiveFixpoint, Parallel: true}, true},
		{"nfq-parallel", Options{Strategy: LazyNFQ, Parallel: true}, true},
		{"nfq-parallel-w2", Options{Strategy: LazyNFQ, InvokeWorkers: 2}, true},
		{"nfq-speculative", Options{Strategy: LazyNFQ, Layering: true, Speculative: true}, true},
		{"nfq-layered-parallel", Options{Strategy: LazyNFQ, Layering: true, Parallel: true}, false},
		{"lpq-parallel", Options{Strategy: LazyLPQ, Parallel: true}, true},
	}
	sequential := []config{
		{"naive", Options{Strategy: NaiveFixpoint}, false},
		{"eager", Options{Strategy: TopDownEager, Parallel: true, InvokeWorkers: 4}, false},
		{"lpq", Options{Strategy: LazyLPQ}, false},
		{"nfq", Options{Strategy: LazyNFQ}, false},
		{"nfq-layered", Options{Strategy: LazyNFQ, Layering: true}, false},
	}
	oneMember := 0
	for seed := int64(0); seed < 12; seed++ {
		w := workload.Hotels(randomSpec(seed))
		run := func(c config) (*Outcome, *countingPlanner, []telemetry.Span) {
			p := &countingPlanner{}
			tr := telemetry.NewTracer(0)
			opt := c.opt
			opt.Planner, opt.Tracer = p, tr
			out, err := Evaluate(w.Doc.Clone(), w.Query, w.Registry, opt)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			if n := tr.Dropped(); n > 0 {
				t.Fatalf("seed %d %s: span ring dropped %d spans", seed, c.name, n)
			}
			return out, p, tr.Spans(0)
		}
		for _, c := range configs {
			name := fmt.Sprintf("seed %d %s", seed, c.name)
			out, p, spans := run(c)
			if c.everyRound && len(p.sizes) != out.Stats.Rounds {
				t.Fatalf("%s: PlanBatch ran %d times over %d rounds", name, len(p.sizes), out.Stats.Rounds)
			}
			if len(p.sizes) > out.Stats.Rounds {
				t.Fatalf("%s: PlanBatch ran %d times over only %d rounds", name, len(p.sizes), out.Stats.Rounds)
			}
			invokes := map[string]int{}
			for _, s := range spans {
				if s.Name == "invoke" {
					invokes[s.Attr("round")]++
				}
			}
			var plans []telemetry.Span
			for _, s := range spans {
				if s.Name == "plan" {
					plans = append(plans, s)
				}
			}
			if len(plans) != len(p.sizes) {
				t.Fatalf("%s: %d plan spans for %d PlanBatch calls", name, len(plans), len(p.sizes))
			}
			for i, s := range plans {
				batch, _ := strconv.Atoi(s.Attr("batch"))
				if batch != p.sizes[i] || invokes[s.Attr("round")] != batch {
					t.Fatalf("%s: plan %d: span batch %d, planner saw %d, round %s has %d invokes",
						name, i, batch, p.sizes[i], s.Attr("round"), invokes[s.Attr("round")])
				}
				want := p.sizes[i]
				if c.opt.InvokeWorkers > 0 && c.opt.InvokeWorkers < want {
					want = c.opt.InvokeWorkers
				}
				if p.widths[i] != want {
					t.Fatalf("%s: plan %d offered width %d for a %d-member batch, want %d",
						name, i, p.widths[i], p.sizes[i], want)
				}
				if p.sizes[i] == 1 {
					oneMember++
				}
			}
		}
		for _, c := range sequential {
			name := fmt.Sprintf("seed %d %s", seed, c.name)
			out, p, spans := run(c)
			if len(p.sizes) != 0 {
				t.Fatalf("%s: sequential invocation consulted PlanBatch %d times", name, len(p.sizes))
			}
			for _, s := range spans {
				if s.Name == "plan" {
					t.Fatalf("%s: sequential invocation emitted a plan span", name)
				}
			}
			if out.Stats.CallsInvoked > 0 && out.Stats.Rounds != out.Stats.CallsInvoked+out.Stats.FailedCalls {
				t.Fatalf("%s: %d rounds for %d sequential calls", name, out.Stats.Rounds, out.Stats.CallsInvoked)
			}
		}
	}
	if oneMember == 0 {
		t.Fatal("no one-member batch was planned; the sweep does not cover them")
	}
}
