package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/activexml/axml/internal/core"
	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/pattern"
	"github.com/activexml/axml/internal/repo"
	"github.com/activexml/axml/internal/service"
	"github.com/activexml/axml/internal/telemetry"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

// repo-query parameters: the hotels world stored with its schema; each
// operation opens it warm, evaluates the Figure-4 query typed over the
// persisted F-guide and saves the result under a second name, so every
// operation starts from identical stored bytes.
const (
	repoHotels = 200
	repoSource = "hotels"
	repoSaved  = "hotels-out"
	// sideRepeats is how many times finish times the codec steps that
	// repo.Get and repo.Put run internally.
	sideRepeats = 5
)

var repoQueryDef = workloadDef{
	name: "repo-query",
	params: fmt.Sprintf("workload.Hotels DefaultSpec hotels=%d hidden=%d with schema in repo.Open(dir); per operation: "+
		"repo.Get, pattern.Parse, core.Evaluate{LazyNFQTyped, Schema, UseGuide, Guide} on a SimClock, render, repo.Put as %q; closed loop, 1 client",
		repoHotels, repoHotels/5, repoSaved),
	setup: setupRepoQuery,
}

type repoQuery struct {
	dir     string
	rp      *repo.Repo
	metrics *telemetry.Registry
	reg     *service.Registry
	query   string
	oracle  string
}

func setupRepoQuery(cfg config) (instance, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "repo-query-")
	if err != nil {
		return nil, err
	}
	r := &repoQuery{dir: dir, metrics: telemetry.NewRegistry()}
	if r.rp, err = repo.Open(dir); err != nil {
		r.close()
		return nil, err
	}
	r.rp.Instrument(r.metrics)
	spec := workload.DefaultSpec()
	spec.Hotels = repoHotels
	spec.HiddenHotels = repoHotels / 5
	w := workload.Hotels(spec)
	r.reg = w.Registry
	r.query = w.Query.String()
	if err := r.rp.Put(repoSource, w.Doc, repo.PutOptions{Schema: w.Schema}); err != nil {
		r.close()
		return nil, err
	}
	if r.oracle, err = oracle(w.Doc, w.Query, w.Registry); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *repoQuery) shape() shape { return shape{clients: 1, smokeOps: 3} }

func (r *repoQuery) op(traced bool) sample {
	ot := newOpTrace(traced)
	sp := ot.span("repo.get")
	o, err := r.rp.Get(repoSource)
	sp.End()
	if err != nil {
		return sample{fail: err.Error()}
	}
	if o.Schema == nil {
		return sample{fail: "stored schema lost"}
	}
	sp = ot.span("pattern.parse")
	q, err := pattern.Parse(r.query)
	sp.End()
	if err != nil {
		return sample{fail: err.Error()}
	}
	// The persisted index opens the query warm: the engine adopts the
	// decoded guide and patches it through every expansion, so the save
	// below persists it without a rebuild.
	opt := core.Options{
		Strategy: core.LazyNFQTyped,
		Schema:   o.Schema,
		UseGuide: true,
		Guide:    o.Guide,
		Clock:    &service.SimClock{},
		Tracer:   ot.tracer(),
	}
	sp = ot.span("core.evaluate")
	out, err := core.Evaluate(o.Doc, q, r.reg, opt)
	sp.End()
	if err != nil {
		return sample{fail: err.Error()}
	}
	sp = ot.span("render")
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d result(s), %d call(s) invoked\n", len(out.Results), out.Stats.CallsInvoked)
	for i, res := range out.Results {
		fmt.Fprintf(&buf, "%3d. %v\n", i+1, res.Values)
	}
	sp.End()
	sp = ot.span("repo.put")
	popts := repo.PutOptions{Schema: o.Schema}
	if fguide.Synced(o.Guide) {
		popts.Guide = o.Guide
	}
	err = r.rp.Put(repoSaved, o.Doc, popts)
	sp.End()
	if err != nil {
		return sample{fail: err.Error()}
	}
	s := sample{
		calls:  out.Stats.CallsInvoked,
		rounds: out.Stats.Rounds,
		bytes:  out.Stats.BytesFetched,
		fail:   verdict(canonResults(out.Results), out.Complete, r.oracle),
	}
	if traced {
		spans := traceOp(&s, ot)
		observeEngine(&s, out.Stats)
		for _, name := range []string{"repo.get", "repo.put", "pattern.parse"} {
			for _, d := range spanWalls(spans, name) {
				s.observe(name, ms(d))
			}
		}
		for _, d := range spanWalls(spans, "invoke") {
			s.observe("service.handler_ms", ms(d))
		}
	}
	return s
}

func (r *repoQuery) finish(rep *report, all, traced []sample) []string {
	var failures []string
	reportEngine(rep, all, traced)
	setP50(rep, traced, "repo.get", "repo.get_ms.p50")
	setP50(rep, traced, "repo.put", "repo.put_ms.p50")
	setP50(rep, traced, "service.handler_ms", "service.handler_ms.p50")
	if xs := allObs(traced, "pattern.parse"); len(xs) > 0 {
		d := summarize(xs)
		rep.setDist("pattern.parse_us", 1000*d.P50, d.N)
	}
	rebuilds := r.metrics.Counter(telemetry.MetricRepoRebuilds).Value()
	rep.set("repo.rebuilds", float64(rebuilds))
	if rebuilds != 0 {
		failures = append(failures, fmt.Sprintf("repository rebuilt %d indexes; every open must be warm", rebuilds))
	}
	if man, err := r.rp.Manifest(repoSaved); err == nil && man != nil {
		n := man.Doc.Bytes
		if man.Guide != nil {
			n += man.Guide.Bytes
		}
		if man.Schema != nil {
			n += man.Schema.Bytes
		}
		rep.set("repo.stored_kb", float64(n)/1024)
	}
	if len(traced) > 0 {
		if err := r.sideTimings(rep); err != nil {
			failures = append(failures, err.Error())
		}
	}
	return failures
}

// sideTimings times the codec steps repo.Get and repo.Put perform
// internally — tree.Unmarshal and fguide.Decode of the stored source,
// tree.MarshalIndent of the saved materialised document — by calling
// the same public functions on the same bytes, outside any measured
// operation (median of sideRepeats).
func (r *repoQuery) sideTimings(rep *report) error {
	docData, err := os.ReadFile(filepath.Join(r.dir, repoSource+repo.DocExt))
	if err != nil {
		return err
	}
	guideData, err := os.ReadFile(filepath.Join(r.dir, repoSource+repo.GuideExt))
	if err != nil {
		return err
	}
	saved, err := r.rp.Get(repoSaved)
	if err != nil {
		return err
	}
	var unm, dec, mar []float64
	for i := 0; i < sideRepeats; i++ {
		t0 := time.Now()
		doc, err := tree.Unmarshal(docData)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := fguide.Decode(doc, guideData); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := tree.MarshalIndent(saved.Doc.Root); err != nil {
			return err
		}
		unm = append(unm, ms(t1.Sub(t0)))
		dec = append(dec, ms(t2.Sub(t1)))
		mar = append(mar, ms(time.Since(t2)))
	}
	rep.set("tree.unmarshal_ms", median(unm))
	rep.set("fguide.decode_ms", median(dec))
	rep.set("tree.marshal_ms", median(mar))
	return nil
}

func (r *repoQuery) close() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}
