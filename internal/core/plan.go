package core

import "github.com/activexml/axml/internal/telemetry"

// PlanCall describes one member of an invocation batch to the planner:
// its position in the batch (member order is document order within a
// safe batch, NFQ-retrieval order within a speculative one), the
// service it targets, and whether the engine holds a pushable subquery
// for it.
type PlanCall struct {
	Index   int
	Service string
	Push    bool
}

// BatchPlan is a planner's decision for one batch. The engine only
// accepts schedules that preserve semantics: Queues must hold every
// member index exactly once, and Width must be within [1, requested].
// An invalid plan is ignored and the batch runs on the static striped
// schedule — a buggy planner can cost performance, never correctness.
type BatchPlan struct {
	// Width is the effective pool width: how many workers to run.
	Width int
	// Queues assigns members to workers: Queues[w] is worker w's run
	// list, executed sequentially in order. len(Queues) == Width.
	Queues [][]int
	// Attrs is the plan's rationale — the cost inputs behind the chosen
	// order and width — rendered on the "plan" telemetry span so
	// -explain shows not just the schedule but why.
	Attrs []telemetry.Attr
}

// InvocationPlanner decides how each invocation round executes. The
// engine consults it at three points: PlanBatch schedules a parallel
// batch (order, width), AllowPush gates shipping a subquery to a
// service, and AdmitSpeculative bounds a speculative batch under a
// latency budget. Implementations must be safe for concurrent use —
// the session layer shares one planner across evaluations.
//
// The contract is that planning never changes results: a plan may only
// reorder batch members across workers, shrink the pool, withhold a
// push from a service that provably ignores pushes (the response is
// identical either way), and defer speculative calls to a later round
// (they are re-detected and invoked before the evaluation can finish).
type InvocationPlanner interface {
	// PlanBatch schedules one batch over at most width workers.
	PlanBatch(calls []PlanCall, width int) BatchPlan
	// AllowPush reports whether a subquery should be shipped with calls
	// to the named service. Returning false must be response-neutral:
	// only veto services observed to never honour a push.
	AllowPush(service string) bool
	// AdmitSpeculative selects which members of a speculative batch to
	// launch this round, returned as ascending member indices. An empty
	// or invalid selection admits the whole batch; implementations must
	// always admit at least one call so deferral cannot livelock.
	AdmitSpeculative(calls []PlanCall) []int
}

// validQueues reports whether a plan's queues are a permutation of the
// batch: every member index in [0, n) appears exactly once.
func validQueues(queues [][]int, n int) bool {
	seen := make([]bool, n)
	total := 0
	for _, q := range queues {
		for _, i := range q {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			total++
		}
	}
	return total == n
}
