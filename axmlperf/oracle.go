package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// canon renders a binding multiset canonically: each binding as its
// sorted k=v pairs joined by commas, the multiset sorted and joined by
// semicolons. Two answers are equal iff their canon strings are.
func canon(bindings []map[string]string) string {
	keys := make([]string, len(bindings))
	for i, b := range bindings {
		parts := make([]string, 0, len(b))
		for k, v := range b {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// canonResults is canon over engine results.
func canonResults(rs []pattern.Result) string {
	vals := make([]map[string]string, len(rs))
	for i, r := range rs {
		vals[i] = r.Values
	}
	return canon(vals)
}

// oracle computes a query's expected answer the strategy-agnostic way:
// the naive fixpoint (invoke every call until none remains, then
// evaluate) on a private clone of the pristine document. By the paper's
// completeness invariant (Definition 3) every lazy evaluation must return
// the same binding multiset.
func oracle(doc *tree.Document, q *pattern.Pattern, reg *service.Registry) (string, error) {
	out, err := core.Evaluate(doc.Clone(), q, reg, core.Options{Strategy: core.NaiveFixpoint})
	if err != nil {
		return "", fmt.Errorf("oracle %s: %w", q, err)
	}
	if !out.Complete {
		return "", fmt.Errorf("oracle %s: naive fixpoint incomplete", q)
	}
	return canonResults(out.Results), nil
}

// verdict compares one answer with its oracle; "" means correct.
func verdict(got string, complete bool, want string) string {
	switch {
	case !complete:
		return "incomplete answer"
	case got != want:
		return "answer diverges from the naive-fixpoint oracle"
	}
	return ""
}
