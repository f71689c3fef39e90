package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/plan"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/soap"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// federated parameters: the E17 world (every hotel a five-star target,
// four teaser kinds, push-capable providers) behind a SOAP provider that
// sleeps each service's latency, with two slow partners in one
// power-of-two octave.
const (
	fedHotels  = 16
	fedClients = 2
	fedWorkers = 4
	fedBase    = 5 * time.Millisecond
	// seqHeader tags each provider request so client round trips and
	// server handler times pair up exactly.
	seqHeader = "X-Axmlperf-Seq"
	// Provider handler times must match the configured latency within
	// this calibration tolerance (the sleep itself plus envelope work).
	calibFrac  = 0.25
	calibSlack = 2 * time.Millisecond
)

// fedLatency overrides the base latency for the slow partners.
var fedLatency = map[string]time.Duration{
	"getTeaser0": 120 * time.Millisecond,
	"getTeaser1": 70 * time.Millisecond,
}

var federatedDef = workloadDef{
	name: "federated",
	params: fmt.Sprintf("E17 world hotels=%d (all targets, 4 teaser kinds, push-capable), base latency %v, getTeaser0=%v getTeaser1=%v, "+
		"soap.NewServer(sleep=true) on loopback; client: soap.Client.RegistryFor > profile.Wrap, shared plan.New warmed by one pass; "+
		"per operation core.Evaluate{LazyNFQ, Parallel, InvokeWorkers=%d, Planner, Push, WallClock} on a fresh clone, no response cache; closed loop, %d clients",
		fedHotels, fedBase, fedLatency["getTeaser0"], fedLatency["getTeaser1"], fedWorkers, fedClients),
	setup: setupFederated,
}

type federated struct {
	srv     *http.Server
	served  chan error
	meter   *providerMeter
	rt      *timedTransport
	prof    *profile.Profiler
	planner *plan.CostPlanner
	reg     *service.Registry
	doc     *tree.Document
	q       *pattern.Pattern
	oracle  string
	// configured is each provider service's configured latency.
	configured map[string]time.Duration
	planBefore plan.PlanStats
}

func fedSpec() workload.HotelSpec {
	spec := workload.DefaultSpec()
	spec.Hotels = fedHotels
	spec.HiddenHotels = 0
	spec.TargetEvery = 1
	spec.FiveStarEvery = 1
	spec.IntensionalRatingEvery = 0
	spec.RestosPerCall = 2
	spec.FiveStarRestos = 1
	spec.MuseumsPerCall = 0
	spec.ExtrasPerCall = 0
	spec.TeaserKinds = 4
	spec.Latency = fedBase
	spec.ServiceLatency = fedLatency
	spec.PushCapable = true
	return spec
}

func setupFederated(cfg config) (instance, error) {
	w := workload.Hotels(fedSpec())
	f := &federated{doc: w.Doc, q: w.StarQuery, configured: map[string]time.Duration{}}
	for _, name := range w.Registry.Names() {
		f.configured[name] = w.Registry.Lookup(name).Latency
	}
	var err error
	if f.oracle, err = oracle(w.Doc, w.StarQuery, w.Registry); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.meter = newProviderMeter(soap.NewServer(w.Registry, true))
	f.srv = &http.Server{Handler: f.meter}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()

	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 64
	f.rt = &timedTransport{base: base}
	client := &soap.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: f.rt}}
	remote, err := client.RegistryFor()
	if err != nil {
		f.close()
		return nil, err
	}
	f.prof = profile.New(0, nil)
	f.reg = f.prof.Wrap(remote)
	f.planner = plan.New(f.prof, plan.Options{})

	// One untimed pass teaches the profiler (and so the planner) which
	// partners are slow.
	if s := f.op(false); s.fail != "" {
		f.close()
		return nil, fmt.Errorf("warm pass: %s", s.fail)
	}
	f.meter.reset()
	f.rt.reset()
	f.planBefore = f.planner.Stats()
	return f, nil
}

func (f *federated) shape() shape { return shape{clients: fedClients, smokeOps: 4} }

func (f *federated) op(traced bool) sample {
	ot := newOpTrace(traced)
	sp := ot.span("tree.clone")
	doc := f.doc.Clone()
	sp.End()
	opt := core.Options{
		Strategy:      core.LazyNFQ,
		Parallel:      true,
		InvokeWorkers: fedWorkers,
		Planner:       f.planner,
		Push:          true,
		Clock:         service.NewWallClock(false),
		Tracer:        ot.tracer(),
	}
	sp = ot.span("core.evaluate")
	out, err := core.Evaluate(doc, f.q, f.reg, opt)
	sp.End()
	if err != nil {
		return sample{fail: err.Error()}
	}
	s := sample{
		calls:  out.Stats.CallsInvoked,
		rounds: out.Stats.Rounds,
		bytes:  out.Stats.BytesFetched,
		fail:   verdict(canonResults(out.Results), out.Complete, f.oracle),
	}
	if traced {
		spans := traceOp(&s, ot)
		observeEngine(&s, out.Stats)
		for _, d := range spanWalls(spans, "invoke") {
			s.observe("soap.client_ms", ms(d))
		}
		s.observe("plan.makespan_ratio", makespanRatios(spans)...)
	}
	return s
}

// makespanRatios pairs each plan span with the invoke spans of its
// round: measured batch wall time (first invoke start to last invoke
// end) over the planner's predicted makespan.
func makespanRatios(spans []telemetry.Span) []float64 {
	type window struct{ start, end time.Time }
	batches := map[string]*window{}
	for _, s := range spans {
		if s.Name != "invoke" {
			continue
		}
		r := s.Attr("round")
		end := s.Start.Add(s.Wall)
		if b := batches[r]; b == nil {
			batches[r] = &window{s.Start, end}
		} else {
			if s.Start.Before(b.start) {
				b.start = s.Start
			}
			if end.After(b.end) {
				b.end = end
			}
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != "plan" {
			continue
		}
		planned, err := time.ParseDuration(s.Attr("makespan"))
		b := batches[s.Attr("round")]
		if err != nil || planned <= 0 || b == nil {
			continue
		}
		out = append(out, float64(b.end.Sub(b.start))/float64(planned))
	}
	return out
}

func (f *federated) finish(rep *report, all, traced []sample) []string {
	var failures []string
	reportEngine(rep, all, traced)
	setP50(rep, traced, "soap.client_ms", "soap.client_ms.p50")
	if xs := allObs(traced, "plan.makespan_ratio"); len(xs) > 0 {
		d := summarize(xs)
		rep.setDist("plan.makespan_ratio", d.P50, d.N)
	}
	ops := float64(len(all))
	if ops == 0 {
		return nil
	}
	ps := f.planner.Stats()
	rep.set("plan.batches_per_op", float64(ps.Batches-f.planBefore.Batches)/ops)
	rep.set("plan.reorders_per_op", float64(ps.Reorders-f.planBefore.Reorders)/ops)
	rep.set("plan.width_trims_per_op", float64(ps.WidthTrims-f.planBefore.WidthTrims)/ops)

	reqs := f.meter.snapshot()
	rts := f.rt.snapshot()
	var reqBytes, respBytes float64
	var handler, wire []float64
	perService := map[string][]float64{}
	for seq, r := range reqs {
		reqBytes += float64(r.reqBytes)
		respBytes += float64(r.respBytes)
		handler = append(handler, ms(r.handler))
		perService[r.service] = append(perService[r.service], ms(r.handler))
		if rt, ok := rts[seq]; ok {
			wire = append(wire, ms(rt-r.handler))
		}
	}
	rep.set("soap.request_kb_per_op", reqBytes/ops/1024)
	rep.set("soap.response_kb_per_op", respBytes/ops/1024)
	if len(handler) > 0 {
		d := summarize(handler)
		rep.setDist("service.handler_ms.p50", d.P50, d.N)
	}
	if len(wire) > 0 {
		d := summarize(wire)
		rep.setDist("soap.wire_ms.p50", d.P50, d.N)
	}
	// Calibration: the provider must take each service's configured
	// latency, or the workload is not the one described.
	names := make([]string, 0, len(perService))
	for name := range perService {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p50 := median(perService[name])
		want := ms(f.configured[name])
		rep.set("detail.service.handler_ms.p50."+name, p50)
		if p50 < want || p50 > want*(1+calibFrac)+ms(calibSlack) {
			failures = append(failures, fmt.Sprintf("provider %s handler p50 %.2f ms, configured %.0f ms", name, p50, want))
		}
	}

	// Profiled P95 (the planner's cost input) against the configured
	// latency.
	var worst float64
	for _, sp := range f.prof.Snapshot() {
		want, ok := f.configured[sp.Service]
		if !ok || sp.Calls == 0 || want <= 0 {
			continue
		}
		rel := math.Abs(float64(sp.P95-want)) / float64(want)
		rep.set("detail.profile.p95_ms."+sp.Service, ms(sp.P95))
		worst = math.Max(worst, rel)
	}
	rep.set("profile.p95_rel_err", worst)
	return failures
}

func (f *federated) close() {
	if f.srv != nil {
		f.srv.Close()
		<-f.served
		f.srv = nil
	}
	if f.rt != nil {
		f.rt.base.CloseIdleConnections()
	}
}

// providerRequest is the provider-side record of one service request.
type providerRequest struct {
	service             string
	handler             time.Duration
	reqBytes, respBytes int
}

// providerMeter wraps the SOAP provider's handler: it times each
// service request from arrival to handler return and counts request and
// response body bytes, keyed by the client's sequence header.
type providerMeter struct {
	next http.Handler
	mu   sync.Mutex
	reqs map[string]providerRequest
}

func newProviderMeter(next http.Handler) *providerMeter {
	return &providerMeter{next: next, reqs: map[string]providerRequest{}}
}

func (p *providerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, ok := strings.CutPrefix(r.URL.Path, "/services/")
	if !ok {
		p.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	p.next.ServeHTTP(cw, r)
	rec := providerRequest{service: name, handler: time.Since(t0), reqBytes: body.n, respBytes: cw.n}
	p.mu.Lock()
	p.reqs[r.Header.Get(seqHeader)] = rec
	p.mu.Unlock()
}

func (p *providerMeter) reset() {
	p.mu.Lock()
	p.reqs = map[string]providerRequest{}
	p.mu.Unlock()
}

func (p *providerMeter) snapshot() map[string]providerRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]providerRequest, len(p.reqs))
	for k, v := range p.reqs {
		out[k] = v
	}
	return out
}

type countingReader struct {
	r io.ReadCloser
	n int
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += n
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// timedTransport stamps each provider request with a sequence number and
// records its client-side round trip (request sent to response headers
// received).
type timedTransport struct {
	base *http.Transport
	seq  atomic.Int64
	mu   sync.Mutex
	rts  map[string]time.Duration
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	seq := strconv.FormatInt(t.seq.Add(1), 10)
	r := req.Clone(req.Context())
	r.Header.Set(seqHeader, seq)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	d := time.Since(t0)
	t.mu.Lock()
	if t.rts == nil {
		t.rts = map[string]time.Duration{}
	}
	t.rts[seq] = d
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) reset() {
	t.mu.Lock()
	t.rts = nil
	t.mu.Unlock()
}

func (t *timedTransport) snapshot() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.rts))
	for k, v := range t.rts {
		out[k] = v
	}
	return out
}
