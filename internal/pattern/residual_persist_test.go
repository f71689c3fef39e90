package pattern_test

import (
	"math/rand"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// The harness below replays the engine's guided NFQA loop outside the
// engine: one persistent ResidualMatcher per relevance query, calls
// expanded one at a time with ReplaceCall followed by Invalidate, and
// after every splice each persistent matcher's verdict on every F-guide
// candidate compared with a fresh matcher's — recomputation from scratch
// as the oracle for the maintained memo.

const persistSeeds = 24

// persistSpec draws a small hotel world: intensional ratings, nearby
// restaurant calls and irrelevant museum/extras calls in random
// proportions, so splices land both on and off the spines the relevance
// queries' conditions read.
func persistSpec(rng *rand.Rand) workload.HotelSpec {
	spec := workload.HotelSpec{
		Hotels:         2 + rng.Intn(8),
		HiddenHotels:   rng.Intn(3),
		TargetEvery:    1 + rng.Intn(3),
		FiveStarEvery:  1 + rng.Intn(3),
		RestosPerCall:  1 + rng.Intn(4),
		MuseumsPerCall: rng.Intn(3),
		ExtrasPerCall:  rng.Intn(3),
		TeaserKinds:    rng.Intn(3),
	}
	spec.FiveStarRestos = rng.Intn(spec.RestosPerCall + 1)
	spec.IntensionalRatingEvery = 1 + rng.Intn(3)
	spec.RatingChainDepth = rng.Intn(3)
	spec.MaterializedRestos = rng.Intn(3)
	return spec
}

// persistDivergences runs one seed's expansion sequence and returns how
// many (query, candidate) verdicts of the persistent matchers differed
// from fresh ones. skip names the splice (0-based) whose Invalidate is
// withheld from every matcher; -1 reports every splice.
func persistDivergences(t *testing.T, seed int64, skip int) (divergences, checked int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := workload.Hotels(persistSpec(rng))
	doc := w.Doc.Clone()
	nfqs, err := rewrite.BuildAll(w.Query, rewrite.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	persistent := make([]*pattern.ResidualMatcher, len(nfqs))
	for i, nfq := range nfqs {
		persistent[i] = pattern.NewResidualMatcher(nfq.Query, nfq.Out)
	}
	for step := 0; ; step++ {
		g := fguide.Build(doc)
		for i, nfq := range nfqs {
			fresh := pattern.NewResidualMatcher(nfq.Query, nfq.Out)
			for _, c := range g.Candidates(nfq.Lin, nfq.DescTail) {
				checked++
				if persistent[i].Match(doc, c) != fresh.Match(doc, c) {
					divergences++
				}
			}
		}
		calls := doc.Calls()
		if len(calls) == 0 || step == 60 {
			return divergences, checked
		}
		call := calls[rng.Intn(len(calls))]
		params := make([]*tree.Node, len(call.Children))
		for i, p := range call.Children {
			params[i] = p.Clone()
		}
		resp, err := w.Registry.Invoke(call.Label, params, nil)
		if err != nil {
			t.Fatalf("seed %d: invoke %s: %v", seed, call.Label, err)
		}
		parent := call.Parent
		doc.ReplaceCall(call, resp.Forest)
		if step == skip {
			continue
		}
		for _, m := range persistent {
			m.Invalidate(parent, call)
		}
	}
}

// TestResidualMatcherPersistentMatchesFresh: with every splice reported,
// a matcher kept alive across splices answers exactly like a fresh one.
func TestResidualMatcherPersistentMatchesFresh(t *testing.T) {
	total := 0
	for seed := int64(0); seed < persistSeeds; seed++ {
		div, checked := persistDivergences(t, seed, -1)
		if div != 0 {
			t.Fatalf("seed %d: %d of %d persistent verdicts differ from fresh matching", seed, div, checked)
		}
		total += checked
	}
	if total == 0 {
		t.Fatal("no F-guide candidates were checked")
	}
}

// TestResidualMatcherMissingInvalidateDiverges is the negative control:
// withholding a single Invalidate leaves stale memo entries on the
// spliced spine, and some seed must then disagree with fresh matching —
// otherwise the test above could not catch a missing eviction.
func TestResidualMatcherMissingInvalidateDiverges(t *testing.T) {
	for seed := int64(0); seed < persistSeeds; seed++ {
		for skip := 0; skip < 3; skip++ {
			if div, _ := persistDivergences(t, seed, skip); div > 0 {
				return
			}
		}
	}
	t.Fatal("no seed diverged with an Invalidate withheld; the persistence test cannot detect a missing eviction")
}
