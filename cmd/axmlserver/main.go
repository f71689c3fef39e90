// Command axmlserver serves AXML over HTTP two ways at once: as a SOAP
// service provider (the demo hotels services behind the soap package's
// XML envelope, for axmlquery -provider and examples/distributed) and as
// a multi-tenant query service — a repository of named documents from
// the mixed workload suite, evaluated lazily in place by concurrent
// client sessions that share relevance memos, a response cache and a
// bounded invocation pool, with admission control and load shedding
// (doc/SERVER.md).
//
// Usage:
//
//	axmlserver [-addr :8080] [-hotels 40] [-latency 10ms] [-push] [-sleep]
//	           [-deadline 0] [-recursive] [-invoke-workers 4] [-dump-doc doc.axml]
//	           [-max-active 0] [-max-queued 0] [-retry-after 500ms]
//	           [-invoke-limit 16] [-drain-timeout 10s] [-isolated] [-docs dir]
//	           [-plan cost] [-plan-budget 200ms] [-trace-out spans.jsonl]
//
// Endpoints:
//
//	POST /query               run a query in a session (JSON; 429+Retry-After
//	                          under overload, 503 while draining)
//	GET  /documents           resident document names
//	GET  /tenants             per-tenant accounting
//	GET  /stats               session-manager snapshot
//	GET  /stats/services      per-service statistics profiles (JSON)
//	GET  /services            service descriptor (WSDL-lite)
//	POST /services/<name>     invoke a service
//	GET  /metrics             Prometheus text exposition (sessions, cache,
//	                          request latency histograms, fault counters)
//	GET  /debug/trace?last=N  recent spans as JSON
//	GET  /debug/pprof/...     net/http/pprof profiles
//
// With -recursive the provider materialises its own intensional results
// before honouring pushed queries (the peer deployment of the paper's
// Section 7), so every service advertises push capability.
//
// On SIGINT/SIGTERM the server drains: active sessions run to
// completion (bounded by -drain-timeout), queued and new ones are shed
// with 503, and with -docs the materialised masters are persisted for
// the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run starts the server. When ready is non-nil it receives the bound
// address once listening, which tests use to connect to a :0 listener.
// Closing stop triggers the same graceful drain as SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("axmlserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		hotels     = fs.Int("hotels", 40, "extensional hotels in the demo world")
		latency    = fs.Duration("latency", 10*time.Millisecond, "advertised per-call latency")
		push       = fs.Bool("push", true, "advertise query pushing on extensional services")
		sleep      = fs.Bool("sleep", false, "physically sleep the advertised latency per call")
		deadline   = fs.Duration("deadline", 0, "per-invocation server deadline (0 = unbounded); expired calls answer 504 with a timeout-classed fault")
		recursive  = fs.Bool("recursive", false, "materialise intensional results to honour pushes on every service")
		invokeWork = fs.Int("invoke-workers", 0, "invoke a session round's independent calls — and a recursive materialisation round's embedded calls — on this many concurrent workers (0/1 = sequential)")
		cached     = fs.Bool("cache", true, "memoise service responses server-side (counters on /metrics)")
		cacheTTL   = fs.Duration("cache-ttl", 0, "bound how long a cached response stays servable (0 = forever)")
		dump       = fs.String("dump-doc", "", "write the demo client document to this file and exit")

		maxActive    = fs.Int("max-active", 0, "concurrently executing sessions (0 = GOMAXPROCS)")
		maxQueued    = fs.Int("max-queued", 0, "admission wait-queue budget before shedding (0 = 4x max-active, negative = no queue)")
		retryAfter   = fs.Duration("retry-after", 500*time.Millisecond, "backoff hint on shed (429) responses")
		invokeLimit  = fs.Int("invoke-limit", 16, "session invocations in flight across all tenants (0 = unbounded)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for active sessions")
		isolated     = fs.Bool("isolated", false, "evaluate every session on a private document clone (no shared materialisation)")
		planMode     = fs.String("plan", "off", "off|cost: plan session invocation batches from the shared service profile (results are identical either way)")
		planBudget   = fs.Duration("plan-budget", 0, "defer speculative calls whose estimated latency exceeds this budget under -plan=cost (0 = admit all)")
		noProject    = fs.Bool("no-project", false, "disable type-based document projection on schema-typed documents")
		docsDir      = fs.String("docs", "", "persist materialised documents to this directory across restarts")
		traceOut     = fs.String("trace-out", "", "stream finished telemetry spans to this file as JSONL (closed after drain)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := workload.DefaultSpec()
	spec.Hotels = *hotels
	spec.HiddenHotels = *hotels / 5
	spec.Latency = *latency
	spec.PushCapable = *push
	w := workload.Hotels(spec)
	reg := w.Registry
	if *recursive {
		reg = soap.RecursivePush(reg, 1_000_000, *invokeWork)
	}
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	tracer.InstrumentDrops(metrics)
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "axmlserver: %v\n", err)
			return 1
		}
		traceFile = f
		tracer.SetSink(telemetry.SinkJSONL(f))
	}
	// One profiler spans both stacks (SOAP provider and session service):
	// it sits under each response cache, so it profiles real provider
	// work, and the caches report their outcomes through Notify.
	prof := profile.New(0, nil)
	prof.ExposeProm(metrics)
	reg = prof.Wrap(reg)
	if *cached {
		cache := service.NewCache(service.CacheSpec{TTL: *cacheTTL})
		cache.Instrument(metrics)
		cache.Notify(prof.Notify())
		reg = cache.Wrap(reg)
	}

	if *dump != "" {
		b, err := tree.MarshalIndent(w.Doc.Root)
		if err != nil {
			fmt.Fprintf(stderr, "axmlserver: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*dump, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "axmlserver: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dump)
		return 0
	}

	// The session stack runs next to the SOAP provider with its own
	// response cache: the provider cache keys recursive/push responses,
	// which would cross-contaminate plain session invocations.
	suiteReg, scenarios := workload.Suite(spec)
	qcache := service.NewCache(service.CacheSpec{TTL: *cacheTTL})
	qcache.Instrument(metrics)
	qcache.Notify(prof.Notify())
	sessionReg := qcache.Wrap(prof.Wrap(session.LimitRegistry(suiteReg, *invokeLimit, metrics)))

	var rp *repo.Repo
	if *docsDir != "" {
		var err error
		if rp, err = repo.Open(*docsDir); err != nil {
			fmt.Fprintf(stderr, "axmlserver: %v\n", err)
			return 1
		}
		// Reopen the profiles learned by previous lives of this data
		// directory: quantiles and selectivities are warm from the first
		// request (a corrupt file degrades to a cold start).
		if err := prof.LoadFile(*docsDir); err != nil {
			fmt.Fprintf(stderr, "axmlserver: profiles: %v\n", err)
			return 1
		}
	}
	clock := func() service.Clock { return &service.SimClock{} }
	if *sleep {
		clock = func() service.Clock { return service.NewWallClock(true) }
	}
	engine := core.Options{Strategy: core.LazyNFQ, Incremental: true, NoProject: *noProject}
	if *invokeWork > 1 {
		// The same pool width drives session invocation batches; results
		// are identical to sequential execution, and it is what -plan=cost
		// schedules.
		engine.Layering = true
		engine.Parallel = true
		engine.InvokeWorkers = *invokeWork
	}
	switch *planMode {
	case "off":
	case "cost":
		// One cost planner over the shared profiler serves every session:
		// Config.Engine is copied into each session's options, and the
		// planner is safe for concurrent use. Profiles persisted under
		// -docs make its estimates warm from the first request.
		planner := plan.New(prof, plan.Options{SpeculativeBudget: *planBudget})
		planner.Instrument(metrics)
		engine.Planner = planner
	default:
		fmt.Fprintf(stderr, "axmlserver: unknown -plan mode %q (want off or cost)\n", *planMode)
		return 2
	}
	mgr := session.NewManager(session.Config{
		Registry:   sessionReg,
		Repo:       rp,
		Metrics:    metrics,
		Tracer:     tracer,
		Engine:     engine,
		MaxActive:  *maxActive,
		MaxQueued:  *maxQueued,
		RetryAfter: *retryAfter,
		Isolated:   *isolated,
		Clock:      clock,
	})
	for _, sc := range scenarios {
		// Persisted documents fault in through the repository: document,
		// schema and F-guide all restored, the index warm from disk.
		if rp != nil && rp.Exists(sc.Name) {
			if err := mgr.Preload(sc.Name); err != nil {
				fmt.Fprintf(stderr, "axmlserver: restore %s: %v\n", sc.Name, err)
				return 1
			}
			continue
		}
		if err := mgr.AddDocument(sc.Name, sc.Doc, sc.Schema); err != nil {
			fmt.Fprintf(stderr, "axmlserver: %v\n", err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "axmlserver: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "axmlserver: serving %d services on %s (push=%t, sleep=%t, recursive=%t)\n",
		len(reg.Names()), ln.Addr(), *push, *sleep, *recursive)
	fmt.Fprintf(stdout, "  sessions:   POST http://%s/query over %d documents (max-active=%d, isolated=%t)\n",
		ln.Addr(), len(scenarios), mgr.Stats().Documents, *isolated)
	fmt.Fprintf(stdout, "  descriptor: GET http://%s/services\n", ln.Addr())
	fmt.Fprintf(stdout, "  telemetry:  GET http://%s/metrics, /debug/trace, /debug/pprof\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	provider := soap.NewServer(reg, *sleep)
	provider.Deadline = *deadline
	provider.Metrics = metrics
	provider.Tracer = tracer
	mux := http.NewServeMux()
	telemetry.Mount(mux, metrics, tracer)
	session.Mount(mux, mgr)
	mux.Handle("/stats/services", prof.Handler())
	mux.Handle("/", provider)

	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-served:
		// Serve only returns on listener failure (Shutdown is the other
		// path, reached below).
		fmt.Fprintf(stderr, "axmlserver: %v\n", err)
		return 1
	case <-sig:
	case <-stop:
	}

	// Graceful drain: refuse queued and new sessions (503), let active
	// ones finish, then close idle connections and persist the masters.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := mgr.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "axmlserver: drain: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "axmlserver: shutdown: %v\n", err)
		code = 1
	}
	if *docsDir != "" {
		if err := prof.SaveFile(*docsDir); err != nil {
			fmt.Fprintf(stderr, "axmlserver: profiles: %v\n", err)
			code = 1
		}
	}
	if traceFile != nil {
		// The sink streamed every finished span already; all that is left
		// is making the JSONL durable.
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "axmlserver: trace: %v\n", err)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintf(stdout, "axmlserver: drained and stopped\n")
	}
	return code
}
