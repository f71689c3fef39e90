package pattern

import (
	"github.com/activexml/axml/internal/tree"
)

// ResidualMatcher validates F-guide candidates against the conditions of
// a relevance query that lie outside its linear part — the "NFQ
// filtering" of Section 6.2 of the paper ("the remaining query to
// evaluate checks for the conditions in q_v that don't appear in
// q_v^lin ... starting from the set of function calls returned").
//
// Instead of re-evaluating the whole NFQ per candidate (which would make
// the guide pointless: every candidate would pay a document-wide pass),
// the matcher aligns the query's root→output spine to the candidate's
// concrete ancestor chain and checks each spine node's off-spine branches
// *relative to that ancestor* — so a condition on hotel i's name is only
// searched inside hotel i. Memoisation is shared across candidates, which
// makes batch validation cheap, and survives the mutations reported to
// Invalidate, so a matcher kept across NFQA rounds re-verifies only what a
// splice can have changed. It is not safe for concurrent use.
type ResidualMatcher struct {
	q   *Pattern
	out *Node
	// spine holds the nodes on the path anchor→out, anchor excluded,
	// out excluded (out itself maps to the candidate call).
	spine []*Node
	ev    *evaluator
	anc   []*tree.Node // Match's ancestor-chain buffer
}

// NewResidualMatcher prepares a matcher for the query's output node. The
// nodes on the path from the root to out must be data-matching nodes
// (Const, Star or Var), which holds for every generated LPQ and NFQ: the
// ancestors of a function output are plain data nodes by construction.
// It panics otherwise, since that indicates a query not produced by the
// rewrite package.
func NewResidualMatcher(q *Pattern, out *Node) *ResidualMatcher {
	var rev []*Node
	for x := out.Parent; x != nil && x.Kind != Root; x = x.Parent {
		switch x.Kind {
		case Const, Star, Var:
			rev = append(rev, x)
		default:
			panic("pattern: residual matching requires a plain data spine")
		}
	}
	spine := make([]*Node, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		spine = append(spine, rev[i])
	}
	return &ResidualMatcher{q: q, out: out, spine: spine, ev: newEvaluator(q)}
}

// Match reports whether the query has an embedding mapping the output
// node to the target call. Candidates typically come from an F-guide, so
// their ancestor paths already match the linear part; Match nevertheless
// re-verifies labels and edges, making it safe for arbitrary targets.
func (m *ResidualMatcher) Match(doc *tree.Document, target *tree.Node) bool {
	if target.Kind != tree.Call {
		return false
	}
	if m.out.Label != AnyFunc && m.out.Label != target.Label {
		return false
	}
	// Ancestor chain of the target, root element first.
	anc := m.anc[:0]
	for x := target.Parent; x != nil; x = x.Parent {
		anc = append(anc, x)
	}
	m.anc = anc
	for i, j := 0, len(anc)-1; i < j; i, j = i+1, j-1 {
		anc[i], anc[j] = anc[j], anc[i]
	}
	// Anchor-level branches other than the spine start are document-wide
	// conditions; check them once against the root scope.
	sols := []solution{emptySolution}
	spineStart := m.out
	if len(m.spine) > 0 {
		spineStart = m.spine[0]
	}
	for _, c := range m.q.Root().Children {
		if c == spineStart {
			continue
		}
		sols = joinSolutions(sols, m.ev.requirementSolutions(c, true, rootScope{doc: doc}))
		if len(sols) == 0 {
			return false
		}
	}
	// The first spine step anchors at the document root: a Child edge
	// pins it to anc[0] (the root element); a Desc edge allows any
	// ancestor.
	return m.align(doc, 0, -1, anc, sols)
}

// align assigns spine[i] to an ancestor position after prevJ, threading
// the joined off-spine solutions; it succeeds when every spine node is
// placed, the output edge constraint holds, and the final solution set is
// non-empty.
func (m *ResidualMatcher) align(doc *tree.Document, i, prevJ int, anc []*tree.Node, sols []solution) bool {
	if i == len(m.spine) {
		// All spine nodes placed; the target (child of anc[len-1]) must
		// satisfy the output node's edge from the spine end at prevJ.
		last := len(anc) - 1
		if m.out.Edge == Child && prevJ != last {
			return false
		}
		if m.out.Edge == Desc && prevJ > last {
			return false
		}
		return len(sols) > 0
	}
	s := m.spine[i]
	lo := prevJ + 1
	hi := lo
	if s.Edge == Desc {
		hi = len(anc) - 1
	}
	for j := lo; j <= hi && j < len(anc); j++ {
		a := anc[j]
		if !spineNodeMatches(s, a) {
			continue
		}
		next := sols
		// The spine node's own variable binding participates in joins.
		if s.Kind == Var {
			next = bindAll(next, s.Label, a.Label)
			if len(next) == 0 {
				continue
			}
		}
		ok := true
		for _, c := range s.Children {
			if i+1 < len(m.spine) && c == m.spine[i+1] {
				continue // the spine continues; handled by recursion
			}
			if c == m.out {
				continue // the output maps to the target itself
			}
			next = joinSolutions(next, m.ev.requirementSolutions(c, false, rootScope{forest: anc[j : j+1]}))
			if len(next) == 0 {
				ok = false
				break
			}
		}
		if ok && m.align(doc, i+1, j, anc, next) {
			return true
		}
	}
	return false
}

// Invalidate reports one ReplaceCall mutation and evicts the memo entries
// it can have changed, by the rule of IncrementalEvaluator.Invalidate.
// Call it after every mutation, before the next Match.
func (m *ResidualMatcher) Invalidate(parent, removed *tree.Node) {
	m.ev.invalidate(parent, removed)
}

func spineNodeMatches(s *Node, a *tree.Node) bool {
	if !a.IsData() {
		return false
	}
	return s.Kind != Const || s.Label == a.Label
}

func bindAll(sols []solution, name, value string) []solution {
	var out []solution
	for _, s := range sols {
		if ns, ok := s.withVar(name, value); ok {
			out = append(out, ns)
		}
	}
	return out
}
