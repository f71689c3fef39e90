package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/profile"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/session"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/workload"
)

// memo-hot parameters. Two closed-loop clients sustain about 1550 req/s
// on a 2-CPU machine; the open loop offers a quarter of that. At half
// (800 req/s) every stall of the shared machine piles up a backlog that
// the remaining headroom drains slowly, and run-to-run p95 spread grew
// past 50%.
const (
	memoHotels      = 200
	memoRate        = 400.0 // requests per second, open loop
	memoSenders     = 2
	memoInvokeLimit = 16
	memoTenants     = 8
	memoWarmPasses  = 10
	memoStreamLen   = 1 << 16
)

var memoHotDef = workloadDef{
	name: "memo-hot",
	params: fmt.Sprintf("workload.Suite hotels=%d hidden=%d (4 documents x 2 queries), %d tenants; "+
		"stack: response cache > profiler > session.LimitRegistry(%d), core.Options{LazyNFQ, Incremental}, "+
		"session.Handler on loopback; open loop at %.0f req/s from %d senders; warmed until every pair answers from memo",
		memoHotels, memoHotels/5, memoTenants, memoInvokeLimit, memoRate, memoSenders),
	setup: setupMemoHot,
}

// memoPair is one (document, query) pair with its oracle answer and a
// pre-encoded request body per tenant.
type memoPair struct {
	doc, query string
	oracle     string
	bodies     [][]byte

	// verified holds the encodings of the bindings array already found
	// equal to the oracle. A memo answer repeats the same bytes, so the
	// check is usually one comparison; anything new is decoded and
	// compared as a multiset. This keeps the checking client's own CPU
	// work, which shares the machine with the server, small.
	mu       sync.Mutex
	verified [][]byte
}

// check verifies one answer's bindings against the oracle; "" means
// correct.
func (p *memoPair) check(bindings json.RawMessage, complete bool) string {
	if !complete {
		return verdict("", false, p.oracle)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.verified {
		if bytes.Equal(v, bindings) {
			return ""
		}
	}
	var bs []map[string]string
	if err := json.Unmarshal(bindings, &bs); err != nil {
		return "bad bindings: " + err.Error()
	}
	if f := verdict(canon(bs), true, p.oracle); f != "" {
		return f
	}
	p.verified = append(p.verified, append([]byte(nil), bindings...))
	return ""
}

// answer is the part of session.QueryResponse the benchmark reads, with
// the bindings kept encoded for memoPair.check.
type answer struct {
	Bindings     json.RawMessage `json:"bindings"`
	Complete     bool            `json:"complete"`
	Memo         bool            `json:"memo"`
	CallsInvoked int             `json:"callsInvoked"`
	Rounds       int             `json:"rounds"`
	QueuedMs     float64         `json:"queuedMs"`
	ElapsedMs    float64         `json:"elapsedMs"`
}

type memoHot struct {
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	mgr    *session.Manager
	base   *service.Registry // the providers, under every wrapper
	cache  *service.Cache
	before service.Stats // provider accounting when measurement began

	pairs  []*memoPair
	stream []uint32 // request k sends pair stream[k]/memoTenants as tenant stream[k]%memoTenants
	pos    atomic.Int64
	memo   atomic.Int64
	total  atomic.Int64
	warmed int
}

func setupMemoHot(cfg config) (instance, error) {
	spec := workload.DefaultSpec()
	spec.Hotels = memoHotels
	spec.HiddenHotels = memoHotels / 5
	base, scenarios := workload.Suite(spec)

	// axmlserver's default session stack.
	metrics := telemetry.NewRegistry()
	prof := profile.New(0, nil)
	cache := service.NewCache(service.CacheSpec{})
	cache.Instrument(metrics)
	cache.Notify(prof.Notify())
	reg := cache.Wrap(prof.Wrap(session.LimitRegistry(base, memoInvokeLimit, metrics)))
	mgr := session.NewManager(session.Config{
		Registry: reg,
		Metrics:  metrics,
		Tracer:   telemetry.NewTracer(telemetry.DefaultSpanCapacity),
		Engine:   core.Options{Strategy: core.LazyNFQ, Incremental: true},
	})
	m := &memoHot{mgr: mgr, base: base, cache: cache}
	for _, sc := range scenarios {
		// The manager materialises its masters in place; the oracle
		// needs the scenario documents pristine.
		if err := mgr.AddDocument(sc.Name, sc.Doc.Clone(), sc.Schema); err != nil {
			return nil, err
		}
		for _, qsrc := range sc.Queries {
			q, err := pattern.Parse(qsrc)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", qsrc, err)
			}
			want, err := oracle(sc.Doc, q, base)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			p := &memoPair{doc: sc.Name, query: qsrc, oracle: want}
			for t := 0; t < memoTenants; t++ {
				b, err := json.Marshal(session.QueryRequest{Tenant: fmt.Sprintf("t%d", t), Document: sc.Name, Query: qsrc})
				if err != nil {
					return nil, err
				}
				p.bodies = append(p.bodies, b)
			}
			m.pairs = append(m.pairs, p)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.url = "http://" + ln.Addr().String() + "/query"
	m.srv = &http.Server{Handler: session.Handler(mgr)}
	m.served = make(chan error, 1)
	go func() { m.served <- m.srv.Serve(ln) }()
	m.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * memoSenders}}

	// Warm: replay every pair until all answer from the memo — queries
	// on one document invalidate each other's completeness until the
	// materialisation reaches its fixpoint.
	for pass := 1; ; pass++ {
		allMemo := true
		for i := range m.pairs {
			qr, err := m.post(m.pairs[i].bodies[0])
			if err != nil {
				m.close()
				return nil, fmt.Errorf("warm %s: %w", m.pairs[i].doc, err)
			}
			if f := m.pairs[i].check(qr.Bindings, qr.Complete); f != "" {
				m.close()
				return nil, fmt.Errorf("warm %s %q: %s", m.pairs[i].doc, m.pairs[i].query, f)
			}
			allMemo = allMemo && qr.Memo
		}
		if allMemo {
			m.warmed = pass
			break
		}
		if pass == memoWarmPasses {
			m.close()
			return nil, fmt.Errorf("warm: not every pair answers from memo after %d passes", pass)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	m.stream = make([]uint32, memoStreamLen)
	for k := range m.stream {
		m.stream[k] = uint32(rng.Intn(len(m.pairs) * memoTenants))
	}
	m.before = base.Stats()
	return m, nil
}

func (m *memoHot) shape() shape {
	return shape{clients: memoSenders, rate: memoRate, smokeOps: 200}
}

// post sends one POST /query and decodes the answer.
func (m *memoHot) post(body []byte) (*answer, error) {
	resp, err := m.client.Post(m.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var qr answer
	if err := json.Unmarshal(payload, &qr); err != nil {
		return nil, fmt.Errorf("bad response body: %w", err)
	}
	return &qr, nil
}

func (m *memoHot) op(traced bool) sample {
	k := m.stream[(m.pos.Add(1)-1)%memoStreamLen]
	pi := int(k) / memoTenants
	p := m.pairs[pi]
	t0 := time.Now()
	qr, err := m.post(p.bodies[int(k)%memoTenants])
	rtt := time.Since(t0)
	m.total.Add(1)
	if err != nil {
		return sample{fail: err.Error()}
	}
	if qr.Memo {
		m.memo.Add(1)
	}
	s := sample{calls: qr.CallsInvoked, rounds: qr.Rounds, fail: p.check(qr.Bindings, qr.Complete)}
	if traced {
		queued := time.Duration(qr.QueuedMs * float64(time.Millisecond))
		exec := time.Duration(qr.ElapsedMs * float64(time.Millisecond))
		s.wall = rtt
		s.parts = map[string]time.Duration{
			"session.queue": queued,
			"session.exec":  exec,
			"http.serve":    rtt - queued - exec,
		}
		s.observe("session.queue_ms", qr.QueuedMs)
		s.observe("session.exec_ms", qr.ElapsedMs)
		s.observe("session.serve_overhead_ms", ms(rtt)-qr.QueuedMs-qr.ElapsedMs)
		s.observe("pair", float64(pi))
	}
	return s
}

func (m *memoHot) finish(rep *report, all, traced []sample) []string {
	var failures []string
	if n := m.total.Load(); n > 0 {
		rep.set("session.memo_share", float64(m.memo.Load())/float64(n))
	}
	// Provider-side accounting: what the services actually served while
	// the benchmark measured (memo answers invoke nothing).
	after := m.base.Stats()
	if len(all) > 0 {
		rep.set("calls_per_op", float64(after.Invocations-m.before.Invocations)/float64(len(all)))
		rep.set("fetched_kb_per_op", float64(after.Bytes-m.before.Bytes)/float64(len(all))/1024)
	}
	rep.set("service.cache_hit_rate", m.cache.Stats().HitRate())
	rep.set("detail.memo_hot.warm_passes", float64(m.warmed))
	for _, key := range []string{"session.queue_ms", "session.exec_ms", "session.serve_overhead_ms"} {
		var xs []float64
		for _, s := range traced {
			xs = append(xs, s.obs[key]...)
		}
		if len(xs) > 0 {
			d := summarize(xs)
			rep.setDist(key+".p50", d.P50, d.N)
		}
	}

	// The memo walk's pattern counters, read from the session's Result:
	// one direct Query per pair (answered from the memo like every
	// measured request), weighted by how often the traced stream sent it.
	weights := make([]float64, len(m.pairs))
	var n float64
	for _, s := range traced {
		for _, pi := range s.obs["pair"] {
			weights[int(pi)]++
			n++
		}
	}
	if n > 0 {
		var visited, hits, pruned float64
		for i, p := range m.pairs {
			if weights[i] == 0 {
				continue
			}
			res, err := m.mgr.Query(context.Background(), session.Request{Document: p.doc, Query: p.query})
			if err != nil {
				failures = append(failures, fmt.Sprintf("memo walk %s: %v", p.doc, err))
				continue
			}
			visited += weights[i] * float64(res.Stats.NodesVisited)
			hits += weights[i] * float64(res.Stats.MemoHits)
			pruned += weights[i] * float64(res.Stats.SubtreesPruned)
		}
		rep.set("pattern.nodes_visited_per_op", visited/n)
		rep.set("pattern.memo_hits_per_op", hits/n)
		rep.set("pattern.subtrees_pruned_per_op", pruned/n)
	}
	return failures
}

func (m *memoHot) close() {
	if m.srv != nil {
		m.srv.Close()
		<-m.served
		m.srv = nil
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
}
