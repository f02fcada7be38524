package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the runs must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsTiny runs every workload to its end at a tiny size, untraced
// and traced, and checks that no operation fails, every check passes and
// the result carries exactly the metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.01, trace: trace, traceDir: t.TempDir(), size: tinySize}
			var log bytes.Buffer
			out, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d\n%s", name, trace, out.Correct, out.Attempted, out.Failed, log.String())
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestSameSeedSameInputs checks that a workload's requests follow from its
// seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	targets := func(seed uint64) []string {
		w, err := newWorkload("large-solve", seed, tinySize)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for r := 0; r < 3; r++ {
			for _, q := range w.round(r) {
				out = append(out, q.req.URL.String())
			}
		}
		return out
	}
	if a, b := targets(3), targets(3); !slices.Equal(a, b) {
		t.Error("seed 3 gave two request sequences")
	}
	if a, b := targets(3), targets(4); slices.Equal(a, b) {
		t.Error("seeds 3 and 4 gave the same requests")
	}
}

// TestKindMedianWeighsEachKindsMedian checks latency_p50_ms on two kinds
// of request: each kind's median, weighted by its request count.
func TestKindMedianWeighsEachKindsMedian(t *testing.T) {
	xs := []sample{{1, 40}, {0, 10}, {1, 20}, {0, 12}, {0, 11}, {1, 30}, {1, 1000}}
	// Kind 0: median 11 over 3 requests; kind 1: median 35 over 4.
	if got, want := kindMedian(xs), (3*11.0+4*35.0)/7; got != want {
		t.Fatalf("kindMedian = %g, want %g", got, want)
	}
}
