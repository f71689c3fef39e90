package soap

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/tree"
)

// layerBase is a two-service world for the registry-layer tests: "push"
// can evaluate a pushed subquery, "plain" cannot. Both return the same
// extensional forest.
func layerBase() *service.Registry {
	forest := func([]*tree.Node) ([]*tree.Node, error) {
		var out []*tree.Node
		for _, name := range []string{"Chez Paul", "Le Bistro"} {
			r := tree.NewElement("restaurant")
			r.Append(tree.NewElement("name")).Append(tree.NewText(name))
			out = append(out, r)
		}
		return out, nil
	}
	reg := service.NewRegistry()
	reg.Register(&service.Service{Name: "push", Latency: 3 * time.Millisecond, CanPush: true, Handler: forest})
	reg.Register(&service.Service{Name: "plain", Latency: 5 * time.Millisecond, Handler: forest})
	return reg
}

// TestRegistryLayersPreserveServices pins what every registry layer must
// keep of the services it wraps: the descriptor (name, latency, push
// capability, which only recursive push raises), Stats at both ends, and
// each layer's push handling. Cache and faults drop a pushed query for a
// service that cannot push; profile and limit pass it through, so the
// profiler records the ignored push attempt the planner's push veto
// learns from.
func TestRegistryLayersPreserveServices(t *testing.T) {
	layerProf := profile.New(0, nil)
	cases := []struct {
		name       string
		wrap       func(*service.Registry) *service.Registry
		raisesPush bool
		// below is the push attempts per service that reach the layer
		// underneath.
		below map[string]uint64
	}{
		{"cache", service.NewCache(service.CacheSpec{}).Wrap, false, map[string]uint64{"push": 1, "plain": 0}},
		{"faults", service.NewFaults(service.FaultSpec{Seed: 1}).Wrap, false, map[string]uint64{"push": 1, "plain": 0}},
		{"profile", layerProf.Wrap, false, map[string]uint64{"push": 1, "plain": 1}},
		{"limit", func(r *service.Registry) *service.Registry { return session.LimitRegistry(r, 2, nil) },
			false, map[string]uint64{"push": 1, "plain": 1}},
		{"recursive-push", func(r *service.Registry) *service.Registry { return RecursivePush(r, 100, 1) },
			true, map[string]uint64{"push": 0, "plain": 0}},
	}
	q := pattern.MustParse(`/restaurant[name=$X] -> $X`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := layerBase()
			probe := profile.New(0, nil)
			under := probe.Wrap(base)
			stack := tc.wrap(under)
			if fmt.Sprint(stack.Names()) != fmt.Sprint(base.Names()) {
				t.Fatalf("names = %v, want %v", stack.Names(), base.Names())
			}
			for _, name := range base.Names() {
				in, out := base.Lookup(name), stack.Lookup(name)
				if out.Latency != in.Latency || out.CanPush != (in.CanPush || tc.raisesPush) {
					t.Fatalf("%s: wrapper advertises latency %v push %v, inner %v %v",
						name, out.Latency, out.CanPush, in.Latency, in.CanPush)
				}
				resp, err := stack.Invoke(name, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Pushed != out.CanPush {
					t.Fatalf("%s: pushed = %v, want %v", name, resp.Pushed, out.CanPush)
				}
			}
			wantPushed := 1
			if tc.raisesPush {
				wantPushed = 2
			}
			if st := stack.Stats(); st.Invocations != 2 || st.PushedInvocations != wantPushed || st.Bytes == 0 {
				t.Fatalf("layer stats = %+v", st)
			}
			for label, reg := range map[string]*service.Registry{"under": under, "base": base} {
				if st := reg.Stats(); st.Invocations != 2 || st.PushedInvocations != int(tc.below["push"]) {
					t.Fatalf("%s stats = %+v", label, st)
				}
			}
			for _, sp := range probe.Snapshot() {
				if sp.PushAttempts != tc.below[sp.Service] {
					t.Fatalf("%s: %d push attempts reached the layer below, want %d",
						sp.Service, sp.PushAttempts, tc.below[sp.Service])
				}
			}
		})
	}
	snap := layerProf.Snapshot()
	if len(snap) != 2 || snap[0].Service != "plain" || snap[0].PushAttempts != 1 || snap[0].Pushed != 0 {
		t.Fatalf("profile layer must record plain's ignored push attempt: %+v", snap)
	}
}

// TestFailingServiceNamedOnce: an error is prefixed with its service's
// name where it starts (the handler, or the transport proxy), never again
// by the layers it passes through.
func TestFailingServiceNamedOnce(t *testing.T) {
	base := service.NewRegistry()
	base.Register(&service.Service{
		Name: "hotel",
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			return nil, errors.New("boom")
		},
	})
	prof := profile.New(0, nil)
	stack := service.NewCache(service.CacheSpec{}).Wrap(prof.Wrap(session.LimitRegistry(base, 2, nil)))
	if _, err := stack.Invoke("hotel", nil, nil); err == nil || err.Error() != "service hotel: boom" {
		t.Fatalf("three-layer stack: err = %v", err)
	}
	root := tree.NewElement("hotels")
	root.Append(tree.NewCall("hotel"))
	out, err := core.Evaluate(tree.NewDocument(root), pattern.MustParse(`/hotels/hotel`), stack,
		core.Options{Strategy: core.LazyNFQ, Failure: core.BestEffort})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 1 || out.Failures[0].Err.Error() != "service hotel: boom" {
		t.Fatalf("failures = %+v", out.Failures)
	}

	srv := httptest.NewServer(NewServer(base, false))
	defer srv.Close()
	remote, err := (&Client{BaseURL: srv.URL}).RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	_, err = prof.Wrap(remote).Invoke("hotel", nil, nil)
	want := fmt.Sprintf("service hotel: permanent fault invoking hotel: %s/services/hotel: "+
		"500 Internal Server Error: service hotel: boom", srv.URL)
	if err == nil || err.Error() != want {
		t.Fatalf("profiled soap registry: err = %v\nwant %s", err, want)
	}
}
