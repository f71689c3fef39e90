package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/influence"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/schema"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
)

// coreMetrics holds the engine's pre-resolved telemetry instruments so
// hot-path updates are single atomic operations (no map lookups, no
// allocation). All fields are nil when Options.Metrics is unset; the
// nil instruments swallow updates.
type coreMetrics struct {
	evals       *telemetry.Counter
	calls       *telemetry.Counter
	pruned      *telemetry.Counter
	retries     *telemetry.Counter
	giveups     *telemetry.Counter
	pushed      *telemetry.Counter
	guideBuilds *telemetry.Counter
	guideWarm   *telemetry.Counter
	evalSecs    *telemetry.Histogram
	detectSecs  *telemetry.Histogram
	invokeWall  *telemetry.Histogram
	invokeVirt  *telemetry.Histogram
}

func resolveMetrics(reg *telemetry.Registry) coreMetrics {
	if reg == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		evals:       reg.Counter(telemetry.MetricEvaluations),
		calls:       reg.Counter(telemetry.MetricCallsInvoked),
		pruned:      reg.Counter(telemetry.MetricCallsPruned),
		retries:     reg.Counter(telemetry.MetricRetries),
		giveups:     reg.Counter(telemetry.MetricGiveUps),
		pushed:      reg.Counter(telemetry.MetricPushedCalls),
		guideBuilds: reg.Counter(telemetry.MetricGuideBuilds),
		guideWarm:   reg.Counter(telemetry.MetricGuideWarm),
		evalSecs:    reg.Histogram(telemetry.MetricEvalSeconds),
		detectSecs:  reg.Histogram(telemetry.MetricDetectSeconds),
		invokeWall:  reg.Histogram(telemetry.MetricInvokeWallSeconds),
		invokeVirt:  reg.Histogram(telemetry.MetricInvokeVirtualSeconds),
	}
}

// Evaluate computes the full result of q over doc, invoking services from
// reg according to the options. The document is mutated in place: relevant
// calls are replaced by their results (clone the document first to keep
// the original). On success the outcome's Results hold the full query
// result; Complete reports whether every relevant call was resolved
// within the budget.
func Evaluate(doc *tree.Document, q *pattern.Pattern, reg *service.Registry, opt Options) (*Outcome, error) {
	if err := rewrite.Validate(q); err != nil {
		return nil, err
	}
	e := &engine{doc: doc, q: q, reg: reg, opt: opt,
		names: map[string]bool{}, failed: map[*tree.Node]bool{},
		met: resolveMetrics(opt.Metrics)}
	evalStart := time.Now()
	e.spanEval = opt.Tracer.Start("evaluate", 0)
	e.spanEval.SetAttr("strategy", opt.Strategy.String())
	for _, c := range doc.Calls() {
		e.names[c.Label] = true
	}
	if e.opt.Strategy == TopDownEager {
		// The eager baseline models a blocking top-down processor: one
		// call at a time, no sequencing analysis, no pushing, no
		// detection pool.
		e.opt.Layering, e.opt.Parallel, e.opt.Push = false, false, false
		e.opt.Speculative = false
		e.opt.Workers, e.opt.InvokeWorkers = 0, 0
	}
	if e.opt.Speculative || e.opt.InvokeWorkers > 1 {
		e.opt.Parallel = true
	}
	if e.opt.Clock == nil {
		e.opt.Clock = &service.SimClock{}
	}
	if e.opt.MaxCalls == 0 {
		e.opt.MaxCalls = DefaultMaxCalls
	}
	var err error
	switch opt.Strategy {
	case NaiveFixpoint:
		err = e.runNaive()
	case TopDownEager, LazyLPQ, LazyNFQ, LazyNFQTyped:
		err = e.runLazy()
	default:
		err = fmt.Errorf("core: unknown strategy %v", opt.Strategy)
	}
	if err != nil {
		e.spanEval.SetAttr("error", err.Error())
		e.spanEval.End()
		return nil, err
	}
	if len(e.failures) > 0 {
		// Best-effort left failed calls unresolved in the document. The
		// run's completeness claim no longer holds a priori; recompute
		// it from the final state (Definition 3): the result is still
		// the full result iff none of the leftover calls is relevant.
		// Type-refined relevance (sound for any strategy, Section 5)
		// applies whenever a schema is available, so a failed call whose
		// signature cannot contribute does not cost completeness.
		ok, cerr := Complete(doc, q, e.opt.Schema, e.opt.SchemaMode)
		e.complete = cerr == nil && ok
	}
	resultSpan := e.opt.Tracer.Start("result-eval", e.spanEval.ID())
	results, st := pattern.EvalProjected(doc, q, asProjector(e.userProj))
	resultSpan.SetInt("results", int64(len(results)))
	resultSpan.End()
	e.stats.NodesVisited += st.NodesVisited
	e.stats.SubtreesPruned += st.SubtreesPruned
	e.stats.VirtualTime = e.opt.Clock.Elapsed()
	e.stats.FinalSize = doc.Size()
	// Calls still pending in the final document were never deemed
	// relevant: they are the calls laziness pruned (the paper's headline
	// savings metric).
	prunedCalls := len(e.pendingCalls())
	e.spanEval.SetInt("calls_invoked", int64(e.stats.CallsInvoked))
	e.spanEval.SetInt("calls_pruned", int64(prunedCalls))
	e.spanEval.SetInt("results", int64(len(results)))
	e.spanEval.AddVirtual(e.stats.VirtualTime)
	e.spanEval.End()
	e.met.evals.Inc()
	e.met.calls.Add(int64(e.stats.CallsInvoked))
	e.met.pruned.Add(int64(prunedCalls))
	e.met.retries.Add(int64(e.stats.Retries))
	e.met.giveups.Add(int64(e.stats.FailedCalls))
	e.met.pushed.Add(int64(e.stats.PushedCalls))
	e.met.evalSecs.Observe(time.Since(evalStart))
	return &Outcome{Results: results, Complete: e.complete, Failures: e.failures, Stats: e.stats}, nil
}

type engine struct {
	doc *tree.Document
	q   *pattern.Pattern
	reg *service.Registry
	opt Options

	stats    Stats
	complete bool

	guide *fguide.Guide
	an    *schema.Analyzer
	names map[string]bool // service names seen in the document
	// failed marks calls given up on under BestEffort; they are excluded
	// from relevance detection and naive fixpoint rounds so the
	// evaluation can terminate around them.
	failed   map[*tree.Node]bool
	failures []CallFailure
	// nameVersion increments whenever a previously unseen service name
	// enters the document; refined NFQs must then be regenerated with
	// the enriched name list (Section 5, "the refined NFQs are enriched
	// accordingly").
	nameVersion int
	// nfqs holds each live relevance query's detection state; reset
	// whenever the query objects are regenerated, and kept sound across
	// rounds by apply funnelling every mutation to its memo tables.
	nfqs map[*rewrite.NFQ]*nfqState
	// userProj is the user query's own projection, applied to the final
	// result evaluation; nil when the engine does not project.
	userProj *schema.Projection
	// round is the sequential detection/invocation round counter,
	// stamped onto telemetry spans (1-based within an evaluation).
	round int
	// met holds the pre-resolved telemetry instruments (all nil when
	// metrics are off).
	met coreMetrics
	// spanEval and spanLayer are the open telemetry spans detect and
	// invoke spans parent under (nil when tracing is off).
	spanEval  *telemetry.ActiveSpan
	spanLayer *telemetry.ActiveSpan
}

// spanParent is the enclosing span for detect/invoke spans: the current
// layer when layering is on, the evaluation root otherwise.
func (e *engine) spanParent() telemetry.SpanID {
	if e.spanLayer != nil {
		return e.spanLayer.ID()
	}
	return e.spanEval.ID()
}

// budgetLeft reports how many more calls may be invoked.
func (e *engine) budgetLeft() int { return e.opt.MaxCalls - e.stats.CallsInvoked }

// runNaive is the strawman: invoke every call, recursively, to a
// fixpoint, then evaluate (Section 1).
func (e *engine) runNaive() error {
	for {
		calls := e.pendingCalls()
		if len(calls) == 0 {
			e.complete = true
			return nil
		}
		if e.budgetLeft() <= 0 {
			return nil
		}
		e.round++
		if len(calls) > e.budgetLeft() {
			calls = calls[:e.budgetLeft()]
		}
		if e.opt.Parallel {
			if err := e.invokeBatch(calls, nil); err != nil {
				return err
			}
		} else {
			for _, c := range calls {
				if err := e.invokeOne(c, nil); err != nil {
					return err
				}
			}
		}
	}
}

// runLazy is the NFQA loop of Section 4.1 with the optional layering of
// Section 4.3, parallelism of Section 4.4, typing of Section 5, guide and
// relaxation of Section 6, and pushing of Section 7.
func (e *engine) runLazy() error {
	t0 := time.Now()
	analysisSpan := e.opt.Tracer.Start("analysis", e.spanEval.ID())
	if e.opt.Strategy == LazyNFQTyped {
		if e.opt.Schema == nil {
			analysisSpan.End()
			return fmt.Errorf("core: LazyNFQTyped requires a schema")
		}
		e.an = schema.NewAnalyzer(e.opt.Schema, e.q, e.opt.SchemaMode)
		if !e.opt.NoProject {
			e.userProj = e.an.Projection()
		}
	}
	// Build the relevance-query set once for the influence analysis; the
	// per-iteration query objects are regenerated as the Done set and the
	// known service names evolve, but the linear parts never change, so
	// the layer structure is computed once.
	base, err := e.buildQueries(nil)
	if err != nil {
		analysisSpan.End()
		return err
	}
	var analysis *influence.Analysis
	layers := []influence.Layer{{Members: allIndices(len(base))}}
	if e.opt.Layering {
		analysis = influence.New(base)
		layers = analysis.Layers()
	}
	e.stats.AnalysisTime += time.Since(t0)
	analysisSpan.SetInt("queries", int64(len(base)))
	analysisSpan.SetInt("layers", int64(len(layers)))
	analysisSpan.End()

	if e.opt.UseGuide {
		if g := e.opt.Guide; g != nil && g.Doc() == e.doc && fguide.Synced(g) {
			// Warm path: adopt the caller's guide (decoded from a
			// repository's persisted index, or kept in sync by the session
			// layer) instead of rebuilding. The engine maintains it in
			// place below, so it stays synced for the caller.
			e.guide = g
			e.met.guideWarm.Inc()
		} else {
			guideSpan := e.opt.Tracer.Start("guide-build", e.spanEval.ID())
			if keep := e.guideKeep(base); keep != nil {
				// Projection-aware construction: regions no relevance
				// query of this evaluation can match into are never
				// indexed, so the guide is proportional to the projected
				// document. Sound for exactly this query — such a guide
				// is engine-local and never handed back or persisted.
				e.guide = fguide.BuildFiltered(e.doc, keep)
				guideSpan.SetInt("filtered", 1)
			} else {
				e.guide = fguide.Build(e.doc)
			}
			e.met.guideBuilds.Inc()
			guideSpan.SetInt("paths", int64(e.guide.Paths()))
			guideSpan.End()
		}
	}

	done := map[int]bool{}
	for li, layer := range layers {
		members := layer.SortedMembers()
		e.spanLayer = e.opt.Tracer.Start("layer", e.spanEval.ID())
		e.spanLayer.SetInt("layer", int64(li))
		e.spanLayer.SetInt("members", int64(len(members)))
		invokedBefore, virtBefore := e.stats.CallsInvoked, e.opt.Clock.Elapsed()
		err := e.drainLayer(members, analysis, done)
		// Per-layer pruned-vs-invoked accounting: invoked is the layer's
		// delta; skipped is what stayed pending when the layer settled —
		// calls visible to this layer's relevance analysis that it did
		// not invoke (a later layer may still take them; whatever is
		// left at the end of the evaluation was pruned outright).
		e.spanLayer.SetInt("invoked", int64(e.stats.CallsInvoked-invokedBefore))
		e.spanLayer.SetInt("skipped", int64(len(e.pendingCalls())))
		e.spanLayer.AddVirtual(e.opt.Clock.Elapsed() - virtBefore)
		e.spanLayer.End()
		e.spanLayer = nil
		if err != nil {
			return err
		}
		if e.budgetLeft() <= 0 {
			return nil
		}
		// Section 4.3: positions of a finished layer can no longer hold
		// calls; later queries drop the corresponding OR/() branches.
		for _, m := range members {
			done[base[m].For.ID] = true
		}
	}
	e.complete = true
	return nil
}

// admitSpeculative applies the planner's latency-budget admission to a
// speculative batch. Deferred calls stay in the document as pending
// calls; the next round re-detects whatever is still relevant, so
// deferral reshapes the schedule without changing results. An invalid
// selection (empty, out of range, not strictly ascending) admits the
// whole batch — like an invalid plan, a buggy admission can only cost
// performance.
func (e *engine) admitSpeculative(pl InvocationPlanner, calls []*tree.Node, nfqs []*rewrite.NFQ) ([]*tree.Node, []*rewrite.NFQ) {
	pcs := make([]PlanCall, len(calls))
	for i, c := range calls {
		pcs[i] = PlanCall{Index: i, Service: c.Label}
	}
	keep := pl.AdmitSpeculative(pcs)
	if len(keep) == 0 || len(keep) >= len(calls) {
		return calls, nfqs
	}
	prev := -1
	for _, i := range keep {
		if i <= prev || i >= len(calls) {
			return calls, nfqs
		}
		prev = i
	}
	e.stats.SpeculativeDeferred += len(calls) - len(keep)
	nc := make([]*tree.Node, len(keep))
	nq := make([]*rewrite.NFQ, len(keep))
	for j, i := range keep {
		nc[j], nq[j] = calls[i], nfqs[i]
	}
	return nc, nq
}

// sortByDocOrder re-ranks parallel call/NFQ slices into document order.
func sortByDocOrder(calls []*tree.Node, nfqs []*rewrite.NFQ, doc *tree.Document) {
	pos := make(map[*tree.Node]int, len(calls))
	for i, c := range doc.Calls() {
		pos[c] = i
	}
	sort.Sort(&docOrderBatch{calls: calls, nfqs: nfqs, pos: pos})
}

type docOrderBatch struct {
	calls []*tree.Node
	nfqs  []*rewrite.NFQ
	pos   map[*tree.Node]int
}

func (b *docOrderBatch) Len() int           { return len(b.calls) }
func (b *docOrderBatch) Less(i, j int) bool { return b.pos[b.calls[i]] < b.pos[b.calls[j]] }
func (b *docOrderBatch) Swap(i, j int) {
	b.calls[i], b.calls[j] = b.calls[j], b.calls[i]
	b.nfqs[i], b.nfqs[j] = b.nfqs[j], b.nfqs[i]
}

// pendingCalls lists the document's calls minus those given up on.
func (e *engine) pendingCalls() []*tree.Node {
	calls := e.doc.Calls()
	if len(e.failed) == 0 {
		return calls
	}
	out := calls[:0]
	for _, c := range calls {
		if !e.failed[c] {
			out = append(out, c)
		}
	}
	return out
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// drainLayer runs NFQA over the layer's members until none of them
// retrieves a relevant call.
func (e *engine) drainLayer(members []int, analysis *influence.Analysis, done map[int]bool) error {
	// The query objects only change when the done set does (handled by
	// rebuilding per layer) or, for refined NFQs, when a previously
	// unseen service name enters the document.
	var queries []*rewrite.NFQ
	builtAt := -1
	for {
		if e.budgetLeft() <= 0 {
			return nil
		}
		e.round++
		if queries == nil || (e.an != nil && builtAt != e.nameVersion) {
			t0 := time.Now()
			var err error
			queries, err = e.buildQueries(done)
			if err != nil {
				return err
			}
			builtAt = e.nameVersion
			// Regenerated query objects invalidate the detection state
			// wholesale: memo tables and projections key per query node
			// ID, and the new queries' IDs mean different subtrees.
			e.nfqs = map[*rewrite.NFQ]*nfqState{}
			e.stats.AnalysisTime += time.Since(t0)
		}
		progressed := false
		lpqBased := e.opt.Strategy == TopDownEager || e.opt.Strategy == LazyLPQ
		if e.opt.Speculative {
			// Gather every member NFQ's retrieved calls and fire them as
			// one batch. Calls can be retrieved by several NFQs; the
			// batch is deduplicated, and each call is pushed the
			// subquery of the first NFQ that retrieved it.
			sets := e.detectMany(members, queries)
			seen := map[*tree.Node]bool{}
			var batchCalls []*tree.Node
			var batchNFQs []*rewrite.NFQ
			for i, m := range members {
				nfq := queries[m]
				for _, c := range sets[i] {
					if !seen[c] {
						seen[c] = true
						batchCalls = append(batchCalls, c)
						batchNFQs = append(batchNFQs, nfq)
					}
				}
			}
			if len(batchCalls) == 0 {
				return nil
			}
			if pl := e.opt.Planner; pl != nil && len(batchCalls) > 1 {
				batchCalls, batchNFQs = e.admitSpeculative(pl, batchCalls, batchNFQs)
			}
			if b := e.budgetLeft(); len(batchCalls) > b {
				// The batch is assembled in NFQ-retrieval order, which
				// depends on member iteration; a budget cut must not let
				// that ordering decide which calls are dropped. Re-rank
				// the batch by document order first, so the invoked
				// prefix is deterministic and the dropped calls are
				// exactly the document's trailing ones — like the
				// sequential MaxCalls cut, they stay pending in the
				// document and the evaluation reports Complete=false.
				sortByDocOrder(batchCalls, batchNFQs, e.doc)
				batchCalls = batchCalls[:b]
				batchNFQs = batchNFQs[:b]
			}
			if err := e.invokeMixedBatch(batchCalls, batchNFQs); err != nil {
				return err
			}
			continue
		}
		// With a detection pool, every member's relevant set is computed
		// up front in one parallel pass; the member loop then consumes
		// the precomputed sets. The acted-on set is always the first
		// non-empty one, and the loop re-detects after every invocation
		// round, so the invoked sequence matches sequential detection
		// exactly — only the work accounting differs (no early exit).
		var sets [][]*tree.Node
		if e.opt.Workers > 1 && len(members) > 1 {
			sets = e.detectMany(members, queries)
		}
		for mi, m := range members {
			nfq := queries[m]
			var calls []*tree.Node
			if sets != nil {
				calls = sets[mi]
			} else {
				calls = e.relevantCalls(nfq, mi)
			}
			if len(calls) == 0 {
				continue
			}
			progressed = true
			if len(calls) > e.budgetLeft() {
				calls = calls[:e.budgetLeft()]
			}
			switch {
			case e.opt.Parallel && (analysis == nil || analysis.Independent(m)):
				if err := e.invokeBatch(calls, nfq); err != nil {
					return err
				}
			case lpqBased:
				// Position relevance cannot be invalidated by another
				// invocation (an LPQ has no conditions and the call
				// stays at its position), so the whole retrieved set is
				// invoked without re-evaluation — sequentially, each
				// call charged in full.
				for _, c := range calls {
					if err := e.invokeOne(c, nfq); err != nil {
						return err
					}
				}
			default:
				// Invoke a single call, then re-evaluate the layer's
				// queries: its result may have changed every NFQ's
				// relevant set (Section 4.1).
				if err := e.invokeOne(calls[0], nfq); err != nil {
					return err
				}
			}
			break
		}
		if !progressed {
			return nil
		}
	}
}

// buildQueries regenerates the relevance queries for the current engine
// state (strategy, done positions, known names). The result always holds
// one query per non-anchor node, in pre-order, so member indices from the
// influence analysis stay valid across regenerations. Done positions are
// only used to simplify OR/() branches inside the queries (Section 4.3):
// queries for done nodes are still present but belong to finished layers
// and are never evaluated again.
func (e *engine) buildQueries(done map[int]bool) ([]*rewrite.NFQ, error) {
	ropt := rewrite.Options{
		RelaxJoins: e.opt.RelaxJoins,
		Analyzer:   e.an,
		Names:      e.sortedNames(),
		Done:       done,
	}
	if e.opt.Strategy == TopDownEager || e.opt.Strategy == LazyLPQ {
		return e.lpqSet()
	}
	var out []*rewrite.NFQ
	for _, v := range e.q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		var (
			nfq *rewrite.NFQ
			err error
		)
		if done[v.ID] {
			// Finished layer: keep an index placeholder; its query is
			// never evaluated again.
			nfq, err = rewrite.LPQ(e.q, v)
		} else {
			nfq, err = rewrite.Build(e.q, v, ropt)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, nfq)
	}
	return out, nil
}

// lpqSet builds the minimized LPQ family. Minimization (containment-based
// redundancy elimination, Section 4.1) is skipped when pushing, since the
// subsumed finer queries carry more precise subqueries to push. The set
// depends only on the user query, so it is deterministic across calls and
// the influence analysis' member indices stay valid.
func (e *engine) lpqSet() ([]*rewrite.NFQ, error) {
	var out []*rewrite.NFQ
	for _, v := range e.q.Nodes() {
		if v.Kind == pattern.Root {
			continue
		}
		l, err := rewrite.LPQ(e.q, v)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	if !e.opt.Push {
		out = rewrite.Minimize(out)
	}
	return out, nil
}

func (e *engine) sortedNames() []string {
	out := make([]string, 0, len(e.names))
	for n := range e.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// detectDelta is one relevance detection's contribution to the shared
// counters. Detections return it by value so a parallel pool's workers
// never touch engine state; the coordinator merges.
type detectDelta struct {
	queried         bool // a relevance query actually ran (trace + counter)
	pattern.Stats        // direct evaluation work
	guideCandidates int
}

// mergeDetect folds one detection's accounting into the engine stats.
func (e *engine) mergeDetect(d detectDelta) {
	if d.queried {
		e.stats.RelevanceQueries++
	}
	e.stats.NodesVisited += d.NodesVisited
	e.stats.MemoHits += d.MemoHits
	e.stats.SubtreesPruned += d.SubtreesPruned
	e.stats.GuideCandidates += d.guideCandidates
}

// nfqState is one live relevance query's detection state: a residual
// matcher for guided detection (Section 6.2); for direct detection the
// projection predicate and, with Options.Incremental, an evaluator shard.
// Unused fields stay nil.
type nfqState struct {
	residual *pattern.ResidualMatcher
	iev      *pattern.IncrementalEvaluator
	proj     pattern.Projector
}

// state returns (creating on demand) one relevance query's detection
// state, nil for a nil query. Only the coordinating goroutine may call
// it — it writes e.nfqs; pool workers rely on detectMany resolving every
// state they will read.
func (e *engine) state(nfq *rewrite.NFQ) *nfqState {
	if nfq == nil {
		return nil
	}
	if st := e.nfqs[nfq]; st != nil {
		return st
	}
	st := &nfqState{}
	if e.guide != nil {
		st.residual = pattern.NewResidualMatcher(nfq.Query, nfq.Out)
	} else {
		st.proj = asProjector(e.projection(nfq))
		if e.opt.Incremental {
			st.iev = pattern.NewIncrementalProjected(nfq.Query, st.proj)
		}
	}
	e.nfqs[nfq] = st
	return st
}

// projection builds the document-projection predicate for one relevance
// query, or returns nil when the engine does not project. Construction
// runs the per-query satisfiability fixpoint, so it is charged to
// analysis time.
func (e *engine) projection(nfq *rewrite.NFQ) *schema.Projection {
	if e.userProj == nil {
		return nil
	}
	t0 := time.Now()
	proj := schema.NewProjection(e.opt.Schema, nfq.Query, e.opt.SchemaMode)
	e.stats.AnalysisTime += time.Since(t0)
	return proj
}

// asProjector adapts a projection for the pattern evaluator: a nil or
// trivial (nothing-prunable) predicate becomes a nil interface so the
// evaluator skips the per-node check entirely.
func asProjector(p *schema.Projection) pattern.Projector {
	if p == nil || p.Trivial() {
		return nil
	}
	return p
}

// guideKeep derives the label filter for projection-aware guide
// construction: keep a label exactly when at least one relevance query
// of this evaluation could match inside elements carrying it (the
// disjunction of the per-NFQ projections — the guide serves every NFQ,
// so only a region dead for all of them may go unindexed; a call the
// filter drops could never survive detect's residual matcher). Returns
// nil (index everything) without typed projection, or when any query's
// projection is absent or trivial and filtering could lose candidates
// or buy nothing. Relevance queries regenerated in later rounds only
// drop branches of the base set, so the base projections stay sound for
// the whole evaluation.
func (e *engine) guideKeep(base []*rewrite.NFQ) func(string) bool {
	if e.userProj == nil {
		return nil
	}
	projs := make([]*schema.Projection, 0, len(base))
	for _, nfq := range base {
		p := e.projection(nfq)
		if p == nil || p.Trivial() {
			return nil
		}
		projs = append(projs, p)
	}
	if len(projs) == 0 {
		return nil
	}
	return func(label string) bool {
		for _, p := range projs {
			if p.CanMatchAnyBelow(label) {
				return true
			}
		}
		return false
	}
}

// detect retrieves the calls currently relevant for one NFQ: by direct
// evaluation on the document (incremental when the NFQ has a persistent
// evaluator shard), or via the F-guide followed by type-based and
// residual filtering (Section 6.2). Type pruning on the output side
// (Section 5) applies in both paths. It writes only st's memo tables, so
// distinct NFQs may be detected concurrently.
func (e *engine) detect(nfq *rewrite.NFQ, st *nfqState) ([]*tree.Node, detectDelta) {
	var d detectDelta
	if nfq == nil {
		return nil, d
	}
	var calls []*tree.Node
	if e.guide != nil {
		cands := e.guide.Candidates(nfq.Lin, nfq.DescTail)
		d.guideCandidates = len(cands)
		if len(cands) == 0 {
			return nil, d
		}
		// Candidates share the query's residual matcher, so condition
		// checks are memoised across candidates and rounds, and each only
		// explores the candidate's own ancestors' subtrees (Section 6.2).
		d.queried = true
		for _, c := range cands {
			if e.failed[c] || !nfq.SatisfiesOut(e.an, c.Label) {
				continue
			}
			if st.residual.Match(e.doc, c) {
				calls = append(calls, c)
			}
		}
		return calls, d
	}
	var got []*tree.Node
	if st.iev != nil {
		got, d.Stats = st.iev.MatchedCallsIncremental(e.doc, nfq.Out)
	} else {
		got, d.Stats = pattern.MatchedCallsProjected(e.doc, nfq.Query, nfq.Out, st.proj)
	}
	d.queried = true
	for _, c := range got {
		if !e.failed[c] && nfq.SatisfiesOut(e.an, c.Label) {
			calls = append(calls, c)
		}
	}
	return calls, d
}

// relevantCalls is the sequential entry point around detect: it charges
// detection time, merges the counters and emits the telemetry span.
// shard is the member's slot in the current layer.
func (e *engine) relevantCalls(nfq *rewrite.NFQ, shard int) []*tree.Node {
	st := e.state(nfq) // projection building is analysis, not detection
	t0 := time.Now()
	calls, d := e.detect(nfq, st)
	elapsed := time.Since(t0)
	e.stats.DetectTime += elapsed
	e.mergeDetect(d)
	if d.queried {
		e.met.detectSecs.Observe(elapsed)
		e.emitDetectSpan(nfq, shard, t0, elapsed, len(calls))
	}
	return calls
}

// emitDetectSpan records one relevance detection as a telemetry span.
func (e *engine) emitDetectSpan(nfq *rewrite.NFQ, shard int, start time.Time, wall time.Duration, calls int) {
	if e.opt.Tracer == nil {
		return
	}
	e.opt.Tracer.Emit(telemetry.Span{
		Parent: e.spanParent(),
		Name:   "detect",
		Shard:  shard,
		Start:  start,
		Wall:   wall,
		Attrs: []telemetry.Attr{
			{Key: "round", Value: strconv.Itoa(e.round)},
			{Key: "target", Value: traceTarget(nfq)},
			{Key: "calls", Value: strconv.Itoa(calls)},
		},
	})
}

// detectMany evaluates the members' relevance queries for the current
// round, sharded over a bounded worker pool when Options.Workers allows
// (each member query owns its evaluator shard, so workers share only the
// read-only document). Stats deltas are merged and spans emitted by the
// coordinator, in member order, after the pool drains — the parallel
// rounds stay race-clean and deterministic. Detection time is
// charged as wall time: the pool's speedup is the observable quantity.
func (e *engine) detectMany(members []int, queries []*rewrite.NFQ) [][]*tree.Node {
	calls := make([][]*tree.Node, len(members))
	deltas := make([]detectDelta, len(members))
	// Resolve every shard's state on the coordinator before the pool
	// starts: e.nfqs is a map only the coordinator may write. Predicate
	// construction is analysis work, kept outside the detection window.
	states := make([]*nfqState, len(members))
	for i, m := range members {
		states[i] = e.state(queries[m])
	}
	t0 := time.Now()
	workers := e.opt.Workers
	if workers > len(members) {
		workers = len(members)
	}
	// Each shard measures its own wall time in the worker (every worker
	// writes only its own slots); the coordinator merges counters and
	// emits spans after the pool drains, so the stream comes out
	// ordered by (layer, round, shard) no matter how the workers
	// interleaved.
	starts := make([]time.Time, len(members))
	walls := make([]time.Duration, len(members))
	runShard := func(i int) {
		starts[i] = time.Now()
		calls[i], deltas[i] = e.detect(queries[members[i]], states[i])
		walls[i] = time.Since(starts[i])
	}
	if workers <= 1 {
		for i := range members {
			runShard(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runShard(i)
				}
			}()
		}
		for i := range members {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	e.stats.DetectTime += time.Since(t0)
	for i, d := range deltas {
		e.mergeDetect(d)
		if d.queried {
			e.met.detectSecs.Observe(walls[i])
			e.emitDetectSpan(queries[members[i]], i, starts[i], walls[i], len(calls[i]))
		}
	}
	return calls
}

// pushedQuery returns the subquery to ship with a call retrieved for nfq,
// or nil when pushing is off, impossible, or unsafe. The subquery is
// sub_v, v's subtree (Section 7); it is only pushed when the binding
// tuples it returns can stand in for a full match: every result node is a
// variable and every variable of the subtree is a result variable (a
// variable shared with the rest of the query but absent from the tuples
// could not be joined).
func (e *engine) pushedQuery(nfq *rewrite.NFQ) *pattern.Pattern {
	if !e.opt.Push || nfq == nil {
		return nil
	}
	sub := e.q.Sub(nfq.For)
	resultVars := map[string]bool{}
	for _, r := range sub.ResultNodes() {
		if r.Kind != pattern.Var {
			return nil
		}
		resultVars[r.Label] = true
	}
	for _, v := range sub.Variables() {
		if !resultVars[v] {
			return nil
		}
	}
	return sub
}

// callMeta accounts for one call's full attempt sequence: the virtual
// time it consumed (attempt latencies plus backoffs), how many attempts
// were made, how many were cut by the deadline, and the final error when
// every attempt failed. attemptLog records the per-attempt outcomes for
// trace rendering; it is collected only when a tracer is active.
type callMeta struct {
	cost       time.Duration
	attempts   int
	cuts       int
	err        error
	attemptLog []attemptRec
}

// attemptRec is one attempt's outcome: its virtual cost and the fault
// class it ended with ("" for success).
type attemptRec struct {
	cost  time.Duration
	class string
}

// invokeAttempts runs the retry loop for one call. It mutates no engine
// state (safe to run concurrently for a batch); the caller applies the
// response, charges the clock and updates stats afterwards.
func (e *engine) invokeAttempts(call *tree.Node, pushed *pattern.Pattern) (service.Response, callMeta) {
	var meta callMeta
	policy := e.opt.Retry
	collect := e.opt.Tracer != nil
	record := func(cost time.Duration, err error) {
		if !collect {
			return
		}
		class := ""
		if err != nil {
			class = service.ClassOf(err).String()
		}
		meta.attemptLog = append(meta.attemptLog, attemptRec{cost: cost, class: class})
	}
	// Propagate the trace downstream: remote providers continue the trace
	// under the enclosing layer/evaluate span and may return their span
	// subtree (Options.RemoteSpans). With no trace ID set the context
	// stays plain and the wire envelope is byte-identical to untraced
	// runs.
	ctx := context.Background()
	if id := e.opt.Tracer.Trace(); id != "" {
		ctx = telemetry.WithTrace(ctx, telemetry.TraceContext{
			TraceID:  id,
			Parent:   e.spanParent(),
			MaxSpans: e.opt.RemoteSpans,
		})
	}
	for {
		meta.attempts++
		if meta.attempts > 1 {
			meta.cost += policy.backoffBefore(meta.attempts, int(call.ID))
		}
		resp, err := e.reg.InvokeContext(ctx, call.Label, cloneForest(call.Children), pushed)
		if err == nil {
			if policy.Deadline > 0 && resp.Latency > policy.Deadline {
				// The provider answered, but past the deadline: the
				// engine stopped waiting at the cutoff, so the attempt
				// costs exactly the deadline and the answer is lost.
				meta.cost += policy.Deadline
				meta.cuts++
				err = &service.Fault{
					Service: call.Label, Class: service.Timeout, Latency: policy.Deadline,
					Msg: fmt.Sprintf("latency %v exceeded deadline %v", resp.Latency, policy.Deadline),
				}
				record(policy.Deadline, err)
			} else {
				meta.cost += resp.Latency
				record(resp.Latency, nil)
				return resp, meta
			}
		} else {
			lat := service.FaultLatency(err)
			if policy.Deadline > 0 && lat > policy.Deadline {
				lat = policy.Deadline
				meta.cuts++
			}
			meta.cost += lat
			record(lat, err)
		}
		if meta.attempts >= policy.attempts() || !service.Retryable(err) {
			meta.err = err
			return service.Response{}, meta
		}
	}
}

// chargeMeta records a finished attempt sequence's retry accounting.
func (e *engine) chargeMeta(meta callMeta) {
	e.stats.Retries += meta.attempts - 1
	e.stats.DeadlineCuts += meta.cuts
}

// giveUp handles a call whose attempts are exhausted: fail the
// evaluation (FailFast) or record the failure and park the call
// (BestEffort).
func (e *engine) giveUp(call *tree.Node, path string, meta callMeta) error {
	if e.opt.Failure == FailFast {
		return meta.err
	}
	e.stats.FailedCalls++
	e.failed[call] = true
	e.failures = append(e.failures, CallFailure{
		Service: call.Label, Path: path, Attempts: meta.attempts, Err: meta.err,
	})
	return nil
}

// emitInvokeSpan records one call's full attempt sequence as a span and
// feeds the invocation histograms. worker is the invocation-pool worker
// the attempt sequence ran on (0 outside a batch). remote is the
// provider-side span subtree returned in the response envelope; it is
// grafted under the invoke span. A retried call additionally gets one
// "attempt" child span per attempt, so retry storms are visible in the
// explain tree (single-attempt calls emit no children, keeping
// fault-free trace streams unchanged).
func (e *engine) emitInvokeSpan(call *tree.Node, nfq *rewrite.NFQ, path string, worker int, start time.Time, wall time.Duration, meta callMeta, pushed bool, remote []telemetry.Span) {
	e.met.invokeWall.Observe(wall)
	e.met.invokeVirt.Observe(meta.cost)
	if e.opt.Tracer == nil {
		return
	}
	s := telemetry.Span{
		Parent:  e.spanParent(),
		Name:    "invoke",
		Worker:  worker,
		Start:   start,
		Wall:    wall,
		Virtual: meta.cost,
		Attrs: []telemetry.Attr{
			{Key: "round", Value: strconv.Itoa(e.round)},
			{Key: "service", Value: call.Label},
			{Key: "path", Value: path},
		},
	}
	if t := traceTarget(nfq); t != "" {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "target", Value: t})
	}
	if pushed {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "pushed", Value: "true"})
	}
	if meta.attempts > 1 {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "attempts", Value: strconv.Itoa(meta.attempts)})
	}
	if meta.err != nil {
		s.Attrs = append(s.Attrs, telemetry.Attr{Key: "error", Value: meta.err.Error()})
	}
	id := e.opt.Tracer.Emit(s)
	if meta.attempts > 1 {
		for i, a := range meta.attemptLog {
			status := a.class
			if status == "" {
				status = "ok"
			}
			e.opt.Tracer.Emit(telemetry.Span{
				Parent:  id,
				Name:    "attempt",
				Worker:  worker,
				Start:   start,
				Virtual: a.cost,
				Attrs: []telemetry.Attr{
					{Key: "attempt", Value: strconv.Itoa(i + 1)},
					{Key: "status", Value: status},
				},
			})
		}
	}
	e.opt.Tracer.GraftRemote(id, remote)
}

// pushFor computes the subquery to ship with a call to svc, honouring
// the planner's push veto. The veto is response-neutral by contract —
// a planner may only veto services observed to never honour a push, so
// withholding the subquery saves serialization without changing the
// response.
func (e *engine) pushFor(nfq *rewrite.NFQ, svc string) *pattern.Pattern {
	p := e.pushedQuery(nfq)
	if p != nil && e.opt.Planner != nil && !e.opt.Planner.AllowPush(svc) {
		e.stats.PushVetoed++
		return nil
	}
	return p
}

// emitPlanSpan records the planner's decision for one batch: the
// schedule shape (batch size, accepted width) plus the planner's own
// rationale attrs — the per-service cost inputs behind the chosen order
// — so -explain shows not just the schedule but why.
func (e *engine) emitPlanSpan(bp BatchPlan, batch, width int, start time.Time, wall time.Duration) {
	if e.opt.Tracer == nil {
		return
	}
	attrs := append([]telemetry.Attr{
		{Key: "round", Value: strconv.Itoa(e.round)},
		{Key: "batch", Value: strconv.Itoa(batch)},
		{Key: "width", Value: strconv.Itoa(width)},
	}, bp.Attrs...)
	e.opt.Tracer.Emit(telemetry.Span{
		Parent: e.spanParent(),
		Name:   "plan",
		Start:  start,
		Wall:   wall,
		Attrs:  attrs,
	})
}

// invokeOne invokes a single call (retries included) and charges its full
// cost sequentially.
func (e *engine) invokeOne(call *tree.Node, nfq *rewrite.NFQ) error {
	path := tracePath(call)
	pushed := e.pushFor(nfq, call.Label)
	start := time.Now()
	resp, meta := e.invokeAttempts(call, pushed)
	wall := time.Since(start)
	e.chargeMeta(meta)
	e.opt.Clock.Advance(meta.cost)
	e.stats.Rounds++
	wasPushed := meta.err == nil && pushed != nil && resp.Pushed
	e.emitInvokeSpan(call, nfq, path, 0, start, wall, meta, wasPushed, resp.RemoteTrace)
	if meta.err != nil {
		return e.giveUp(call, path, meta)
	}
	e.apply(call, resp, wasPushed)
	return nil
}

// invokeBatch invokes the calls in parallel and charges the batch's
// maximum latency (Section 4.4). Service handlers run concurrently; the
// document mutations are applied sequentially afterwards.
func (e *engine) invokeBatch(calls []*tree.Node, nfq *rewrite.NFQ) error {
	nfqs := make([]*rewrite.NFQ, len(calls))
	for i := range nfqs {
		nfqs[i] = nfq
	}
	return e.invokeMixedBatch(calls, nfqs)
}

// invokeMixedBatch is invokeBatch with a per-call originating NFQ, so a
// speculative batch can push each call the subquery it was retrieved for.
// Every member runs its own retry loop concurrently and the batch is
// charged its slowest member's full cost, retries and backoffs included
// (Section 4.4). All completed members are applied before any failure is
// reported, so a mid-batch error never drops (or forgets to charge)
// responses that already arrived.
func (e *engine) invokeMixedBatch(calls []*tree.Node, nfqs []*rewrite.NFQ) error {
	type result struct {
		resp   service.Response
		meta   callMeta
		pushed bool
		start  time.Time
		wall   time.Duration
	}
	results := make([]result, len(calls))
	pushes := make([]*pattern.Pattern, len(calls))
	paths := make([]string, len(calls))
	for i, c := range calls {
		pushes[i] = e.pushFor(nfqs[i], c.Label)
		paths[i] = tracePath(c)
	}
	// Bounded invocation pool: member i runs on worker i mod W, so the
	// member→worker assignment — and the Worker stamped onto each invoke
	// span — is deterministic for a given batch regardless of goroutine
	// scheduling. Each worker walks its own stripe sequentially and writes
	// only its members' slots; the coordinator below applies responses in
	// member (document) order after the pool drains, so results, traces
	// and virtual-clock stats are identical for every pool width. W <= 0
	// keeps the historical one-goroutine-per-member behaviour; W == 1
	// degenerates to a sequential walk on the calling goroutine.
	workers := e.opt.InvokeWorkers
	if workers <= 0 || workers > len(calls) {
		workers = len(calls)
	}
	// workerOf[i] is the pool worker member i runs on: the static
	// striped assignment unless an accepted plan overrides it below.
	workerOf := make([]int, len(calls))
	for i := range calls {
		workerOf[i] = i % workers
	}
	// A planner may regroup members across workers and shrink the pool,
	// nothing more: responses are still applied in member order after
	// the pool drains and the batch is still charged its slowest
	// member, so an accepted plan changes wall-clock shape only. A plan
	// that is not an exact permutation of the batch within the width
	// bound is discarded in favour of the striped schedule.
	var queues [][]int
	if pl := e.opt.Planner; pl != nil {
		planStart := time.Now()
		bp := pl.PlanBatch(planCalls(calls, pushes), workers)
		planWall := time.Since(planStart)
		if bp.Width >= 1 && bp.Width <= workers && len(bp.Queues) == bp.Width && validQueues(bp.Queues, len(calls)) {
			workers = bp.Width
			queues = bp.Queues
			for w, q := range queues {
				for _, i := range q {
					workerOf[i] = w
				}
			}
		}
		e.emitPlanSpan(bp, len(calls), workers, planStart, planWall)
	}
	runMember := func(i int) {
		start := time.Now()
		resp, meta := e.invokeAttempts(calls[i], pushes[i])
		results[i] = result{resp, meta, pushes[i] != nil && resp.Pushed, start, time.Since(start)}
	}
	switch {
	case queues != nil && workers > 1:
		var wg sync.WaitGroup
		for _, q := range queues {
			wg.Add(1)
			go func(q []int) {
				defer wg.Done()
				for _, i := range q {
					runMember(i)
				}
			}(q)
		}
		wg.Wait()
	case queues != nil:
		for _, i := range queues[0] {
			runMember(i)
		}
	case workers == 1:
		for i := range calls {
			runMember(i)
		}
	default:
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(calls); i += workers {
					runMember(i)
				}
			}(w)
		}
		wg.Wait()
	}
	var maxCost time.Duration
	var firstErr error
	for i, c := range calls {
		r := results[i]
		e.chargeMeta(r.meta)
		if r.meta.cost > maxCost {
			maxCost = r.meta.cost
		}
		e.emitInvokeSpan(c, nfqs[i], paths[i], workerOf[i], r.start, r.wall, r.meta, r.meta.err == nil && r.pushed, r.resp.RemoteTrace)
		if r.meta.err != nil {
			if err := e.giveUp(c, paths[i], r.meta); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.apply(c, r.resp, r.pushed)
	}
	e.opt.Clock.Advance(maxCost)
	e.stats.Rounds++
	return firstErr
}

// apply splices a response into the document, maintains the guide, the
// known-name set and the per-query memo tables, and updates accounting.
func (e *engine) apply(call *tree.Node, resp service.Response, wasPushed bool) {
	parent := call.Parent
	if e.guide != nil {
		e.guide.Remove(call)
	}
	inserted := e.doc.ReplaceCall(call, resp.Forest)
	for _, n := range inserted {
		if e.guide != nil {
			e.guide.AddSubtree(n)
		}
		n.Walk(func(x *tree.Node) bool {
			if x.Kind == tree.Call && !e.names[x.Label] {
				e.names[x.Label] = true
				e.nameVersion++
			}
			return true
		})
	}
	if e.guide != nil {
		// An empty response forest triggers no Add, which would leave the
		// guide's version behind the splice's bump; the engine witnessed
		// the whole mutation, so the guide is in fact current.
		e.guide.MarkSynced()
	}
	// Every live query's memo tables drop the entries this splice can
	// have changed: the removed call subtree and the root-to-parent
	// spine. Everything off the spine keeps its memo (solutions depend
	// only on the keyed node's subtree).
	for _, st := range e.nfqs {
		if st.residual != nil {
			st.residual.Invalidate(parent, call)
		}
		if st.iev != nil {
			st.iev.Invalidate(parent, call)
		}
	}
	// OnMutate fires last, after the engine's own guide maintenance: an
	// external holder of the adopted guide observes it already synced.
	if e.opt.OnMutate != nil {
		e.opt.OnMutate(parent, call, inserted)
	}
	e.stats.CallsInvoked++
	e.stats.BytesFetched += resp.Bytes
	if wasPushed {
		e.stats.PushedCalls++
	}
}

func cloneForest(ns []*tree.Node) []*tree.Node {
	out := make([]*tree.Node, len(ns))
	for i, n := range ns {
		out[i] = n.Clone()
	}
	return out
}
