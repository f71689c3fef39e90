package soap

import (
	"net/http/httptest"
	"testing"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func TestRecursivePushMaterialisesNestedCalls(t *testing.T) {
	// getHotels results embed rating and restaurant calls; a recursive
	// provider resolves them before answering a pushed query.
	spec := workload.DefaultSpec()
	spec.IntensionalRatingEvery = 2 // plenty of nested calls
	w := workload.Hotels(spec)
	peer := RecursivePush(w.Registry, 10000, 1)

	pushed := pattern.MustParse(
		`/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X`)
	resp, err := peer.Invoke("getHotels", nil, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pushed || len(resp.Forest) != 1 || resp.Forest[0].Kind != tree.Tuples {
		t.Fatalf("resp = %+v", resp)
	}
	// Hidden hotels 40..47; qualifying (i%4==0): 40, 44 → 2 hotels × 2
	// five-star restaurants.
	if got := len(resp.Forest[0].PushedBindings); got != 4 {
		t.Fatalf("bindings = %d, want 4 (%v)", got, resp.Forest[0].PushedBindings)
	}
}

func TestRecursivePushWithoutQueryPassesThrough(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	peer := RecursivePush(w.Registry, 10000, 1)
	resp, err := peer.Invoke("getHotels", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pushed || len(resp.Forest) != 8 {
		t.Fatalf("resp = %+v", resp)
	}
	// Intensional parts stay intensional when nothing is pushed.
	calls := 0
	for _, h := range resp.Forest {
		h.Walk(func(n *tree.Node) bool {
			if n.Kind == tree.Call {
				calls++
			}
			return true
		})
	}
	if calls == 0 {
		t.Fatal("pass-through should keep embedded calls")
	}
}

func TestRecursivePushBudget(t *testing.T) {
	w := workload.Hotels(workload.DefaultSpec())
	peer := RecursivePush(w.Registry, 2, 1)
	pushed := pattern.MustParse(`/hotel[name=$X] -> $X`)
	if _, err := peer.Invoke("getHotels", nil, pushed); err == nil {
		t.Fatal("tiny budget must fail the materialisation")
	}
}

func TestRecursivePushEndToEnd(t *testing.T) {
	// Full engine run against a recursive-push provider over HTTP:
	// every call can now be pushed, including getHotels.
	spec := workload.DefaultSpec()
	spec.Hotels = 12
	spec.HiddenHotels = 4
	w := workload.Hotels(spec)
	peer := RecursivePush(w.Registry, 100000, 1)
	srv := httptest.NewServer(NewServer(peer, false))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	reg, err := client.RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Evaluate(w.Doc.Clone(), w.Query, reg, core.Options{
		Strategy: core.LazyNFQTyped, Schema: w.Schema, Push: true,
		Clock: service.NewWallClock(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != w.ExpectedResults {
		t.Fatalf("results = %d, want %d", len(out.Results), w.ExpectedResults)
	}
	if out.Stats.PushedCalls == 0 {
		t.Fatal("no pushes against the recursive provider")
	}
}
