package soap

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/tree"
)

// flakyServer exposes one service whose handler fails the first n
// invocations with the given error, then answers one item named "ok".
func flakyServer(t *testing.T, n int, failWith error) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	reg := service.NewRegistry()
	reg.Register(&service.Service{
		Name: "flaky",
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			if calls.Add(1) <= int64(n) {
				return nil, failWith
			}
			item := tree.NewElement("item")
			item.Append(tree.NewElement("name")).Append(tree.NewText("ok"))
			return []*tree.Node{item}, nil
		},
	})
	srv := httptest.NewServer(NewServer(reg, false))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// evalFlaky evaluates a one-call document whose call reaches the flaky
// service over HTTP, under the given engine retry policy.
func evalFlaky(t *testing.T, srv *httptest.Server, retry core.RetryPolicy) (*core.Outcome, error) {
	t.Helper()
	reg, err := (&Client{BaseURL: srv.URL}).RegistryFor()
	if err != nil {
		t.Fatal(err)
	}
	root := tree.NewElement("shop")
	root.Append(tree.NewElement("items")).Append(tree.NewCall("flaky"))
	q := pattern.MustParse(`/shop/items/item[name=$X] -> $X`)
	return core.Evaluate(tree.NewDocument(root), q, reg, core.Options{
		Strategy: core.LazyNFQ, Retry: retry, Clock: &service.SimClock{},
	})
}

// TestClientRetriesTransientFaults: the engine's retry policy is the one
// retry loop; two transient wire faults followed by a success are
// absorbed inside one evaluation, one HTTP request per attempt.
func TestClientRetriesTransientFaults(t *testing.T) {
	transient := &service.Fault{Service: "flaky", Class: service.Transient, Msg: "blip"}
	srv, calls := flakyServer(t, 2, transient)
	out, err := evalFlaky(t, srv, core.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Values["X"] != "ok" {
		t.Fatalf("results = %+v", out.Results)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if out.Stats.Retries != 2 {
		t.Fatalf("retries = %d, want 2", out.Stats.Retries)
	}
}

// TestClientDoesNotRetryPermanentFaults: a permanent fault (the default
// class for plain errors) must fail the evaluation after a single
// attempt even when retries are configured.
func TestClientDoesNotRetryPermanentFaults(t *testing.T) {
	srv, calls := flakyServer(t, 100, fmt.Errorf("schema violation"))
	_, err := evalFlaky(t, srv, core.RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "schema violation") {
		t.Fatalf("err = %v", err)
	}
	if service.ClassOf(err) != service.Permanent {
		t.Fatalf("class = %v, want permanent", service.ClassOf(err))
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// TestFaultClassSurvivesTheWire: the class a handler attaches to its
// error must come back out of the HTTP client as the same class, via the
// fault envelope's class attribute.
func TestFaultClassSurvivesTheWire(t *testing.T) {
	for _, class := range []service.ErrorClass{service.Permanent, service.Transient, service.Timeout} {
		reg := service.NewRegistry()
		reg.Register(&service.Service{
			Name: "svc",
			Handler: func([]*tree.Node) ([]*tree.Node, error) {
				return nil, &service.Fault{Service: "svc", Class: class, Msg: "classed"}
			},
		})
		srv := httptest.NewServer(NewServer(reg, false))
		c := &Client{BaseURL: srv.URL}
		_, err := c.Invoke("svc", nil, nil)
		srv.Close()
		if err == nil {
			t.Fatalf("class %v: no error", class)
		}
		if got := service.ClassOf(err); got != class {
			t.Fatalf("class %v came back as %v (err %v)", class, got, err)
		}
		var f *service.Fault
		if !errors.As(err, &f) || f.Service != "svc" {
			t.Fatalf("class %v: error is not a service fault for svc: %v", class, err)
		}
	}
}

// TestServerDeadline: an invocation that outlives Server.Deadline
// answers 504 with a timeout-classed fault, which the client maps back
// to service.Timeout — i.e. retryable by engine policies.
func TestServerDeadline(t *testing.T) {
	reg := service.NewRegistry()
	release := make(chan struct{})
	reg.Register(&service.Service{
		Name: "stuck",
		Handler: func([]*tree.Node) ([]*tree.Node, error) {
			<-release
			return nil, nil
		},
	})
	h := NewServer(reg, false)
	h.Deadline = 20 * time.Millisecond
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	c := &Client{BaseURL: srv.URL}
	start := time.Now()
	_, err := c.Invoke("stuck", nil, nil)
	if err == nil {
		t.Fatal("deadline did not fire")
	}
	if service.ClassOf(err) != service.Timeout {
		t.Fatalf("class = %v, want timeout (err %v)", service.ClassOf(err), err)
	}
	if !strings.Contains(err.Error(), "504") {
		t.Fatalf("expected a 504 in %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline answer took implausibly long")
	}
}

// TestClientTimeout: a per-request client timeout cuts a slow provider
// and classifies the failure as a timeout.
func TestClientTimeout(t *testing.T) {
	mux := http.NewServeMux()
	release := make(chan struct{})
	mux.HandleFunc("/services/slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release) // LIFO: unblock the handler before Close waits on it
	c := &Client{BaseURL: srv.URL, Timeout: 20 * time.Millisecond}
	_, err := c.Invoke("slow", nil, nil)
	if err == nil {
		t.Fatal("client timeout did not fire")
	}
	if service.ClassOf(err) != service.Timeout {
		t.Fatalf("class = %v, want timeout (err %v)", service.ClassOf(err), err)
	}
}

// TestInvokeContextCancellation: cancelling the caller's context aborts
// the in-flight request to a slow provider.
func TestInvokeContextCancellation(t *testing.T) {
	mux := http.NewServeMux()
	release := make(chan struct{})
	mux.HandleFunc("/services/slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release) // LIFO: unblock the handler before Close waits on it
	c := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.InvokeContext(ctx, "slow", nil, nil)
	if err == nil {
		t.Fatal("cancelled invoke succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not cut the in-flight request")
	}
}

// TestNetworkErrorIsTransient: a connection failure (nothing listening)
// must classify as transient so retry policies treat it as such.
func TestNetworkErrorIsTransient(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"}
	_, err := c.Invoke("x", nil, nil)
	if err == nil {
		t.Fatal("unreachable provider must fail")
	}
	if service.ClassOf(err) != service.Transient {
		t.Fatalf("class = %v, want transient (err %v)", service.ClassOf(err), err)
	}
}
