package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestQuantileKnownValues(t *testing.T) {
	ramp := make([]float64, 101) // 1..101
	for i := range ramp {
		ramp[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ramp, 0.50, 51},
		{ramp, 0.95, 96},
		{ramp, 0, 1},
		{ramp, 1, 101},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},   // interpolated between ranks 1 and 2
		{[]float64{1, 2, 3, 4}, 0.95, 3.85}, // h = 2.85
		{[]float64{7}, 0.95, 7},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v…, %g) = %g, want %g", c.xs[0], c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestSummarizeExponential checks the exact quantiles against a known
// distribution: for Exp(1), the q-quantile is −ln(1−q). A log-bucket
// histogram would be off by up to 2×; raw-sample quantiles converge.
func TestSummarizeExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	d := summarize(xs)
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{{"p50", d.P50, 0.50}, {"p95", d.P95, 0.95}} {
		want := -math.Log(1 - c.q)
		if math.Abs(c.got-want)/want > 0.02 {
			t.Errorf("%s = %.4f, want %.4f ± 2%%", c.name, c.got, want)
		}
	}
	if d.N != len(xs) {
		t.Errorf("N = %d, want %d", d.N, len(xs))
	}
	// 5% of the samples lie strictly above the p95 (ties aside).
	if want := len(xs) / 20; d.Beyond95 < want-2 || d.Beyond95 > want+2 {
		t.Errorf("Beyond95 = %d, want ≈ %d", d.Beyond95, want)
	}
}

var metricLine = regexp.MustCompile(`^metric (\S+) = (\S+) (\S+)`)

// TestSmoke runs every workload for a few operations, traced and
// untraced blocks alike, and checks that each metric is printed with
// its unit, that every answer matched the oracle, that the result line
// is well formed and that the repository never rebuilt an index.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", wl.name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--smoke", "--workdir", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				printed := map[string]string{}
				values := map[string]float64{}
				var last string
				for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
					last = line
					if m := metricLine.FindStringSubmatch(line); m != nil {
						printed[m[1]] = m[3]
						v, err := strconv.ParseFloat(m[2], 64)
						if err != nil {
							t.Errorf("metric %s: bad value %q", m[1], m[2])
						}
						values[m[1]] = v
					}
				}
				all := append(append(append([]metricDef(nil), endToEnd...), costCounts...), latencyTail, errorRate)
				all = append(all, layerTimes...)
				all = append(all, perLayer()...)
				for _, d := range all {
					if unit, ok := printed[d.name]; !ok {
						t.Errorf("metric %s not printed", d.name)
					} else if unit != d.unit {
						t.Errorf("metric %s printed with unit %q, want %q", d.name, unit, d.unit)
					}
				}
				if values["error_rate"] != 0 {
					t.Errorf("error_rate = %g", values["error_rate"])
				}
				if values["repo.rebuilds"] != 0 {
					t.Errorf("repo.rebuilds = %g, want 0", values["repo.rebuilds"])
				}
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, last)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer()
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("result line metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists
// the command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if lookupWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the command", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, the command reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, command reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	pl := perLayer()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("per_layer has %d metrics, the command reports %d", len(spec.PerLayer), len(pl))
	}
	for i, m := range spec.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit {
			t.Errorf("per_layer[%d] = %s %s, command reports %s %s", i, m.Name, m.Unit, pl[i].name, pl[i].unit)
		}
	}
}
