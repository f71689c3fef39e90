// Command axmlperf is the repository benchmark: three workloads that
// drive real user paths through the public functions of each layer,
// every answer checked against a naive-fixpoint oracle.
//
//	memo-hot    axmlserver's default session stack over loopback HTTP,
//	            open loop, every answer served from the shared memo
//	repo-query  the `axmlrepo query -save` path: repo.Get, pattern.Parse,
//	            typed lazy evaluation over the persisted F-guide, render,
//	            repo.Put — closed loop, one client
//	federated   an AXML peer evaluating against a remote SOAP provider
//	            with the cost planner and query pushing — closed loop,
//	            two clients
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash axmlperf/run.sh --workload repo-query --seed 1 --seconds 27 --trace 0
//
// The report lists every metric as "metric <name> = <value> <unit>",
// with sample counts on quantiles, preceded by provenance lines. The
// last line is one JSON object {correct, attempted, failed, metrics}:
// with --trace 0 it carries the end-to-end metrics of BENCHMARK.json,
// with --trace 1 the per-layer ones. A traced run alternates untraced
// and traced blocks so it can report the tracing overhead. The exit
// status is non-zero when any answer diverges from the oracle or a
// benchmark self-check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports to the result line:
// what a user of each workload sees. All are non-zero on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops", "ops/s"},
	{"alloc_kb_per_op", "KiB"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MiB"},
}

// latencyTail is printed with the end-to-end metrics but kept off the
// result line: on a shared 2-CPU machine its run-to-run spread (quartile
// distance over median, ten seeds) reached 0.5 on memo-hot and 0.2 on
// repo-query, wider than any bound a regression gate could use.
var latencyTail = metricDef{"latency_p95_ms", "ms"}

// costCounts are the deterministic end-to-end cost counters. They are
// zero on memo-hot by design (every answer comes from the memo), so the
// result line carries them with the per-layer metrics, which have no
// bound; the report prints them with the end-to-end block.
var costCounts = []metricDef{
	{"calls_per_op", "calls"},
	{"rounds_per_op", "rounds"},
	{"fetched_kb_per_op", "KiB"},
}

// errorRate is failed ÷ attempted; the result line carries the same
// information as its "failed" and "attempted" fields.
var errorRate = metricDef{"error_rate", "fraction"}

// shareTerms are the layer terms each traced operation's wall time is
// split into; the result line reports each as share.<term>, its
// fraction of total traced operation time.
var shareTerms = []string{
	"load.backlog", "session.queue", "session.exec", "http.serve",
	"repo.get", "pattern.parse", "core.analysis", "fguide.build",
	"core.detect", "plan.plan", "core.invoke", termCoreOther,
	"core.result_eval", "render", "repo.put", "tree.clone", termUnattributed,
}

// layerCounts are the per-layer metrics a --trace 1 run reports to the
// result line besides costCounts and the shares: counts, sizes and
// ratios measured at the layer boundaries.
var layerCounts = []metricDef{
	{"session.memo_share", "fraction"},
	{"pattern.nodes_visited_per_op", "count"},
	{"pattern.memo_hits_per_op", "count"},
	{"pattern.subtrees_pruned_per_op", "count"},
	{"core.relevance_queries_per_op", "count"},
	{"core.calls_per_round", "calls"},
	{"fguide.candidates_per_op", "count"},
	{"tree.final_nodes", "count"},
	{"repo.stored_kb", "KiB"},
	{"repo.rebuilds", "count"},
	{"service.cache_hit_rate", "fraction"},
	{"soap.request_kb_per_op", "KiB"},
	{"soap.response_kb_per_op", "KiB"},
	{"plan.batches_per_op", "count"},
	{"plan.reorders_per_op", "count"},
	{"plan.width_trims_per_op", "count"},
	{"plan.makespan_ratio", "ratio"},
	{"profile.p95_rel_err", "fraction"},
	{"telemetry.overhead_pct", "%"},
}

// layerTimes are the per-layer times. The report prints them; they stay
// off the result line because each is zero, run after run, on every
// workload that does not exercise its layer (the result line carries
// each layer's share of operation time instead).
var layerTimes = []metricDef{
	{"session.queue_ms.p50", "ms"},
	{"session.exec_ms.p50", "ms"},
	{"session.serve_overhead_ms.p50", "ms"},
	{"pattern.parse_us", "us"},
	{"core.analysis_ms", "ms"},
	{"core.detect_ms", "ms"},
	{"core.invoke_ms", "ms"},
	{"core.result_eval_ms", "ms"},
	{"fguide.decode_ms", "ms"},
	{"tree.unmarshal_ms", "ms"},
	{"tree.marshal_ms", "ms"},
	{"repo.get_ms.p50", "ms"},
	{"repo.put_ms.p50", "ms"},
	{"service.handler_ms.p50", "ms"},
	{"soap.client_ms.p50", "ms"},
	{"soap.wire_ms.p50", "ms"},
	{"load.lag_ms.p95", "ms"},
}

// perLayer is the --trace 1 result-line metric list.
func perLayer() []metricDef {
	out := append([]metricDef(nil), costCounts...)
	out = append(out, layerCounts...)
	for _, t := range shareTerms {
		out = append(out, metricDef{"share." + t, "fraction"})
	}
	return out
}

// Partition tolerance: in a traced operation the layer terms must cover
// the operation's wall time up to this much unattributed time (time no
// layer span covers), per operation and over the whole run.
const (
	partitionOpFrac  = 0.05
	partitionOpSlack = time.Millisecond
	partitionRunFrac = 0.02
)

// minTailSamples is how many samples must lie beyond the p95 for the
// p95 to be trusted; below it the report warns.
const minTailSamples = 10

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	workdir  string
}

// sample is one operation's outcome.
type sample struct {
	// lat is the operation latency: from the scheduled send time in an
	// open loop (see runPhase), from the start of the call in a closed
	// loop.
	lat time.Duration
	// lag is how late an open-loop operation was sent after its due
	// time (backlog plus timer oversleep); open marks open-loop samples.
	lag  time.Duration
	open bool
	// due is when the operation was due; windows order samples by it.
	due time.Time
	// fail is empty for a correct answer, otherwise why the operation
	// counts as failed (transport error, refusal, incomplete or
	// divergent answer).
	fail string
	// Deterministic engine cost of the operation (Stats.CallsInvoked,
	// Stats.Rounds, Stats.BytesFetched).
	calls, rounds, bytes int
	// The rest is filled for traced operations only: the operation's
	// wall time split into layer terms, and per-operation observations
	// keyed by metric (counts, or per-call samples for quantiles).
	wall  time.Duration
	parts map[string]time.Duration
	obs   map[string][]float64
}

// observe records per-operation values under a metric key.
func (s *sample) observe(key string, vs ...float64) {
	if s.obs == nil {
		s.obs = map[string][]float64{}
	}
	s.obs[key] = append(s.obs[key], vs...)
}

// shape describes a workload's load generator.
type shape struct {
	// clients is the number of sender goroutines.
	clients int
	// rate, when positive, makes the loop open: operation i is due at
	// start + i/rate regardless of completions. Zero is a closed loop.
	rate float64
	// smokeOps bounds each phase in smoke mode.
	smokeOps int
}

// instance is one set-up workload, ready to run operations.
type instance interface {
	shape() shape
	// op runs one operation; traced asks for the layer breakdown.
	op(traced bool) sample
	// finish adds the workload's metrics derived from its own counters
	// and the samples (all operations, and the traced ones), and returns
	// any failed self-check.
	finish(m *report, all, traced []sample) []string
	close()
}

// workloadDef names a workload and sets it up.
type workloadDef struct {
	name   string
	params string
	setup  func(cfg config) (instance, error)
}

var workloads = []workloadDef{memoHotDef, repoQueryDef, federatedDef}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// report accumulates metric values (and sample counts for quantiles).
type report struct {
	vals map[string]float64
	n    map[string]int
}

func newReport() *report {
	return &report{vals: map[string]float64{}, n: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

func (r *report) setDist(name string, v float64, n int) {
	r.vals[name] = v
	r.n[name] = n
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("axmlperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: memo-hot, repo-query or federated")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed ordering the request stream")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run a few operations per phase (tests)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for repository files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def := lookupWorkload(cfg.workload)
	if def == nil || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "axmlperf: need --workload memo-hot|repo-query|federated, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg.traced = trace == 1

	fmt.Fprintf(stdout, "# axmlperf workload=%s seed=%d seconds=%g trace=%d smoke=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.smoke)
	fmt.Fprintf(stdout, "# provenance: go=%s GOMAXPROCS=%d nproc=%d commit=%s os=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "# params: %s\n", def.params)

	rep := newReport()
	inst, setupS, err := setUp(def, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "axmlperf: setup: %v\n", err)
		return 1
	}
	defer inst.close()
	rep.setDist("setup_s", median(setupS), len(setupS))
	fmt.Fprintf(stdout, "# set-up times: %v s\n", setupS)

	all, untraced, traced, elapsed, mem := measure(inst, cfg)
	failures := summarizeRun(stdout, rep, all, untraced, traced, elapsed, mem, cfg)
	failures = append(failures, inst.finish(rep, all, traced)...)
	if cfg.traced || cfg.smoke {
		failures = append(failures, checkPartition(traced)...)
	}

	printReport(stdout, rep)
	failed := 0
	for _, s := range all {
		if s.fail != "" {
			failed++
		}
	}
	if failed > 0 {
		failures = append(failures, fmt.Sprintf("%d of %d operations failed (first: %s)", failed, len(all), firstFail(all)))
	}
	for _, f := range failures {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", f)
		fmt.Fprintf(stderr, "axmlperf: check failed: %s\n", f)
	}
	list := endToEnd
	if cfg.traced {
		list = perLayer()
	}
	line, err := resultLine(rep, list, len(failures) == 0, len(all), failed)
	if err != nil {
		fmt.Fprintf(stderr, "axmlperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

// setUp builds the workload setupRepeats times (once in smoke mode),
// keeping the last instance, and returns each set-up time.
func setUp(def *workloadDef, cfg config) (instance, []float64, error) {
	n := setupRepeats
	if cfg.smoke {
		n = 1
	}
	var times []float64
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = def.setup(cfg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// memStats is the allocation and peak-heap accounting of the measured
// phases.
type memStats struct {
	allocBytes uint64
	heapPeak   uint64
	cpu        time.Duration // process user+system CPU time
}

// measure runs the measured phases: the whole run untraced, or — for a
// traced or smoke run — alternating untraced and traced blocks, so the
// tracing overhead is measured under the same conditions.
func measure(inst instance, cfg config) (all, untraced, traced []sample, elapsed time.Duration, mem memStats) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	blocks := []bool{false}
	if cfg.traced || cfg.smoke {
		blocks = []bool{false, true, false, true}
	}
	per := total / time.Duration(len(blocks))
	runtime.GC()
	hs := startHeapSampler()
	allocBefore := readMetric("/gc/heap/allocs:bytes")
	cpuBefore := processCPU()
	for _, tr := range blocks {
		ss, el := runPhase(inst, per, tr, cfg.smoke)
		elapsed += el
		all = append(all, ss...)
		if tr {
			traced = append(traced, ss...)
		} else {
			untraced = append(untraced, ss...)
		}
	}
	mem.allocBytes = readMetric("/gc/heap/allocs:bytes") - allocBefore
	mem.cpu = processCPU() - cpuBefore
	mem.heapPeak = hs.stop()
	return all, untraced, traced, elapsed, mem
}

// runPhase drives one block of operations with the workload's load
// shape and returns its samples and its elapsed time (first scheduled
// operation to last completion).
func runPhase(inst instance, dur time.Duration, traced, smoke bool) ([]sample, time.Duration) {
	sh := inst.shape()
	limit := int64(-1)
	if smoke {
		limit = int64(sh.smokeOps)
	}
	var next atomic.Int64
	per := make([][]sample, sh.clients)
	ends := make([]time.Time, sh.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < sh.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				// due is when the operation should be sent; ref is where its
				// latency clock starts. In the open loop a request that finds
				// its sender still busy waits, and that backlog counts (ref =
				// due). A sender that is idle sleeps until the request is due;
				// how far the timer oversleeps is the generator's lateness,
				// not a wait the system imposed, so the clock then starts at
				// the send (the lateness is reported as load.lag_ms).
				var due, ref time.Time
				if sh.rate > 0 {
					due = start.Add(time.Duration(float64(i) * float64(time.Second) / sh.rate))
					if due.Sub(start) >= dur && limit < 0 {
						return
					}
					ref = due
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
						ref = time.Now()
					}
				} else {
					due = time.Now()
					if due.Sub(start) >= dur && limit < 0 {
						return
					}
					ref = due
				}
				sent := time.Now()
				s := inst.op(traced)
				s.lat = time.Since(ref)
				s.due = due
				ends[w] = time.Now()
				if sh.rate > 0 {
					s.lag, s.open = sent.Sub(due), true
					if s.parts != nil {
						s.parts["load.backlog"] += sent.Sub(ref)
						s.wall += sent.Sub(ref)
					}
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	last := start
	for w := range per {
		out = append(out, per[w]...)
		if ends[w].After(last) {
			last = ends[w]
		}
	}
	return out, last.Sub(start)
}

// summarizeRun derives the workload-independent metrics from the
// samples.
func summarizeRun(w io.Writer, rep *report, all, untraced, traced []sample, elapsed time.Duration, mem memStats, cfg config) []string {
	var failures []string
	e2e := all
	if len(untraced) > 0 {
		e2e = untraced
	}
	var lats []float64
	ok := 0
	var calls, rounds, bytes float64
	for _, s := range e2e {
		if s.fail != "" {
			continue
		}
		ok++
		lats = append(lats, ms(s.lat))
		calls += float64(s.calls)
		rounds += float64(s.rounds)
		bytes += float64(s.bytes)
	}
	p50, p95, windows := windowed(e2e, cfg.seconds)
	d := summarize(lats)
	rep.setDist("latency_p50_ms", p50, d.N)
	rep.setDist("latency_p95_ms", p95, d.N)
	rep.set("detail.latency.p95_windows", float64(windows))
	rep.set("detail.latency.p50_ms.pooled", d.P50)
	rep.set("detail.latency.p95_ms.pooled", d.P95)
	if d.Beyond95 < minTailSamples && !cfg.smoke {
		fmt.Fprintf(w, "# warning: only %d samples beyond p95 (want ≥ %d); run longer\n", d.Beyond95, minTailSamples)
	}
	okAll := 0
	var lagAll []float64
	for _, s := range all {
		if s.fail == "" {
			okAll++
		}
		if s.open {
			lagAll = append(lagAll, ms(s.lag))
		}
	}
	if elapsed > 0 {
		rep.set("throughput_ops", float64(okAll)/elapsed.Seconds())
	}
	if ok > 0 {
		rep.set("calls_per_op", calls/float64(ok))
		rep.set("rounds_per_op", rounds/float64(ok))
		rep.set("fetched_kb_per_op", bytes/float64(ok)/1024)
	}
	if len(all) > 0 {
		rep.set("alloc_kb_per_op", float64(mem.allocBytes)/float64(len(all))/1024)
		rep.set("cpu_ms_per_op", ms(mem.cpu)/float64(len(all)))
		rep.set(errorRate.name, float64(len(all)-okAll)/float64(len(all)))
	}
	rep.set("heap_peak_mb", float64(mem.heapPeak)/(1<<20))
	if len(lagAll) > 0 {
		ld := summarize(lagAll)
		rep.setDist("load.lag_ms.p95", ld.P95, ld.N)
		if ld.P95 > maxLagMs {
			failures = append(failures, fmt.Sprintf("load generator p95 lateness %.2f ms exceeds %.0f ms: the open loop did not hold its rate, the run is invalid", ld.P95, maxLagMs))
		}
	}

	// Traced blocks: tracing overhead and the layer shares.
	if len(traced) > 0 && len(untraced) > 0 {
		var tl, ul []float64
		for _, s := range traced {
			tl = append(tl, ms(s.lat))
		}
		for _, s := range untraced {
			ul = append(ul, ms(s.lat))
		}
		rep.set("telemetry.overhead_pct", 100*(median(tl)/median(ul)-1))
	}
	var wall time.Duration
	parts := map[string]time.Duration{}
	for _, s := range traced {
		wall += s.wall
		for t, d := range s.parts {
			parts[t] += d
		}
	}
	if wall > 0 {
		for _, t := range shareTerms {
			rep.set("share."+t, float64(parts[t])/float64(wall))
		}
		for t := range parts {
			if !containsTerm(t) {
				failures = append(failures, fmt.Sprintf("layer term %q has no share metric", t))
			}
		}
	}
	return failures
}

// windowed returns the latency p50 and p95 of the correct samples,
// each as the median over consecutive windows (in due-time order) of the
// window's exact quantile. A run is cut into one window per second, but
// never so fine that a window holds fewer than minTailSamples samples
// beyond the quantile it reports (20 samples for the p50, 200 for the
// p95); a short run is one window, i.e. the pooled quantile. The median
// over windows keeps a few seconds of machine noise (a neighbour's
// burst, a stall that piles up an open-loop backlog) from moving the
// run's figure, which pooled quantiles let through.
func windowed(ss []sample, seconds float64) (p50, p95 float64, windows int) {
	var ok []sample
	for _, s := range ss {
		if s.fail == "" {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].due.Before(ok[j].due) })
	lats := make([]float64, len(ok))
	for i, s := range ok {
		lats[i] = ms(s.lat)
	}
	p50, _ = windowQuantile(lats, 0.50, seconds)
	p95, windows = windowQuantile(lats, 0.95, seconds)
	return p50, p95, windows
}

// windowQuantile is the median over windows of each window's
// q-quantile (see windowed).
func windowQuantile(xs []float64, q, seconds float64) (float64, int) {
	minSize := int(math.Ceil(minTailSamples / (1 - q)))
	n := len(xs) / minSize
	if byTime := int(seconds); n > byTime {
		n = byTime
	}
	if n < 1 {
		n = 1
	}
	per := make([]float64, n)
	for k := range per {
		w := append([]float64(nil), xs[k*len(xs)/n:(k+1)*len(xs)/n]...)
		sort.Float64s(w)
		per[k] = quantile(w, q)
	}
	return median(per), n
}

// maxLagMs bounds the open-loop generator's p95 lateness; past it the
// offered load was not the configured rate.
const maxLagMs = 50.0

func containsTerm(t string) bool {
	for _, s := range shareTerms {
		if s == t {
			return true
		}
	}
	return false
}

// checkPartition verifies that every traced operation's layer terms add
// up to its wall time: unattributed time must stay within
// partitionOpFrac of the operation (plus partitionOpSlack) per operation
// and within partitionRunFrac over the run.
func checkPartition(traced []sample) []string {
	var wall, un time.Duration
	bad := 0
	for _, s := range traced {
		if s.parts == nil {
			continue
		}
		var sum time.Duration
		for _, d := range s.parts {
			sum += d
		}
		gap := s.parts[termUnattributed] + absDur(s.wall-sum)
		wall += s.wall
		un += gap
		if float64(gap) > partitionOpFrac*float64(s.wall)+float64(partitionOpSlack) {
			bad++
		}
	}
	var out []string
	if bad > 0 {
		out = append(out, fmt.Sprintf("%d traced operations leave more than %.0f%% + %v of their wall time outside every layer span", bad, 100*partitionOpFrac, partitionOpSlack))
	}
	if wall > 0 && float64(un) > partitionRunFrac*float64(wall) {
		out = append(out, fmt.Sprintf("layer terms cover only %.2f%% of traced wall time (tolerance %.0f%%)", 100-100*float64(un)/float64(wall), 100*partitionRunFrac))
	}
	return out
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func firstFail(ss []sample) string {
	for _, s := range ss {
		if s.fail != "" {
			return s.fail
		}
	}
	return ""
}

// printReport writes every metric, grouped, as
// "metric <name> = <value> <unit> [n=<samples>]".
func printReport(w io.Writer, rep *report) {
	line := func(d metricDef) {
		v, ok := rep.vals[d.name]
		note := ""
		if !ok {
			note = "  (layer not on this workload's path)"
		}
		if n, ok := rep.n[d.name]; ok {
			note = fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintf(w, "metric %s = %s %s%s\n", d.name, fmtVal(v), d.unit, note)
	}
	fmt.Fprintln(w, "# end-to-end")
	for _, d := range endToEnd {
		line(d)
	}
	line(latencyTail)
	for _, d := range costCounts {
		line(d)
	}
	line(errorRate)
	fmt.Fprintln(w, "# per-layer")
	for _, d := range layerTimes {
		line(d)
	}
	for _, d := range layerCounts {
		line(d)
	}
	for _, t := range shareTerms {
		line(metricDef{"share." + t, "fraction"})
	}
	var extra []string
	for k := range rep.vals {
		if strings.HasPrefix(k, "detail.") {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "# %s = %s\n", k, fmtVal(rep.vals[k]))
	}
}

func fmtVal(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// resultLine renders the final JSON object with the listed metrics.
func resultLine(rep *report, list []metricDef, correct bool, attempted, failed int) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(list))
	for _, d := range list {
		v := rep.vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[d.name] = val{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, ms})
	return string(b), err
}

// commit returns the VCS revision the binary was built from, when the
// build could stamp one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapSampler polls HeapInuse (heap object bytes plus unused heap span
// bytes, via runtime/metrics, which does not stop the world) every
// heapSampleEvery and keeps each heapWindow's peak.
type heapSampler struct {
	done  chan struct{}
	peaks chan []uint64
}

const (
	heapSampleEvery = 5 * time.Millisecond
	heapWindow      = 3 * time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peaks: make(chan []uint64, 1)}
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		start := time.Now()
		var peaks []uint64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64() + s[1].Value.Uint64()
			win := int(time.Since(start) / heapWindow)
			for len(peaks) <= win {
				peaks = append(peaks, 0)
			}
			if v > peaks[win] {
				peaks[win] = v
			}
			select {
			case <-h.done:
				h.peaks <- peaks
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median over heapWindow windows of
// each window's peak: the heap the workload typically peaks at, which a
// single maximum (one late collection) would overstate from run to run.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	peaks := <-h.peaks
	if len(peaks) > 1 {
		peaks = peaks[:len(peaks)-1] // the last window is cut short
	}
	var xs []float64
	for _, p := range peaks {
		if p > 0 {
			xs = append(xs, float64(p))
		}
	}
	return uint64(median(xs))
}
