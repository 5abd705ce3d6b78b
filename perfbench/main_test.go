package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"connectit/internal/graph"
)

// tiny is a workload small enough to run every phase in a few seconds.
var tiny = workload{
	name: "tiny",
	static: staticSpec{gen: func(seed uint64) (int, []graph.Edge) {
		return 1 << 12, graph.RMATEdges(12, 8<<12, 0.57, 0.19, 0.19, seed)
	}},
	stream: streamSpec{nII: 1 << 12, nIII: 1 << 13, gen: func(n int, seed uint64) []graph.Edge {
		return uniformEdges(n, 4*n, seed)
	}},
	serve: serveSpec{n: 1 << 14, prepared: 1 << 14, gen: uniformEdges},
}

// TestSmokeEveryMetric runs the tiny workload untraced and traced and
// checks that each run emits every metric of its kind and fails nothing
// but sample-size minimums, which a two-second run cannot meet.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every phase twice")
	}
	for _, traced := range []bool{false, true} {
		acc := newAccount()
		var tr *tracer
		if traced {
			tr = &tracer{t0: time.Now()}
		}
		vals := run(tiny, runOpts{seed: 7, seconds: 2, workdir: t.TempDir()}, acc, tr)
		rep, err := buildReport(acc, vals, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		want := 0
		for _, m := range metricDefs {
			if m.layer == traced {
				want++
			}
		}
		if len(rep.Metrics) != want {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(rep.Metrics), want)
		}
		for reason, k := range acc.reasons {
			if !strings.Contains(reason, "too few") {
				t.Errorf("traced=%v: %d failed: %s", traced, k, reason)
			}
		}
		if traced && len(tr.spans) == 0 {
			t.Error("traced run recorded no spans")
		}
	}
}

// TestCorruptedLabelingFails checks that a labeling differing from the
// reference partition in one vertex is counted as a failed operation and
// makes the report incorrect.
func TestCorruptedLabelingFails(t *testing.T) {
	ref := newOracle(6)
	ref.add([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	want := ref.labels()
	acc := newAccount()
	acc.checkPartition(append([]uint32(nil), want...), want, "intact")
	if acc.failed.Load() != 0 {
		t.Fatalf("intact labeling failed: %v", acc.reasons)
	}
	relabeled := []uint32{2, 2, 2, 4, 4, 5} // same partition, other labels
	acc.checkPartition(relabeled, want, "relabeled")
	if acc.failed.Load() != 0 {
		t.Fatalf("relabeled labeling failed: %v", acc.reasons)
	}
	for _, bad := range [][]uint32{
		{0, 0, 0, 3, 3, 3}, // merges {5} into {3, 4}
		{0, 0, 2, 3, 3, 5}, // splits {0, 1, 2}
		{0, 0, 0, 3, 3},    // wrong length
	} {
		acc.checkPartition(bad, want, "corrupted")
	}
	if got := acc.failed.Load(); got != 3 {
		t.Fatalf("failed = %d, want 3", got)
	}
	rep, err := buildReport(acc, results{}, true)
	if err == nil {
		t.Fatal("report without measured metrics succeeded")
	}
	if rep.Correct || rep.Failed != 3 || rep.Attempted != 5 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestBenchmarkJSONMatchesCatalogue checks that BENCHMARK.json names every
// metric the benchmark reports, with the same unit and direction, and
// every workload with its reason, and that every per-layer metric maps to
// an end-to-end one.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2eDefs, layerDefs []metric
	e2eNames := map[string]bool{}
	for _, m := range metricDefs {
		d := metric{m.name, m.unit, m.better}
		if m.layer {
			layerDefs = append(layerDefs, d)
		} else {
			e2eDefs = append(e2eDefs, d)
			e2eNames[m.name] = true
		}
	}
	for _, m := range metricDefs {
		if m.layer && !e2eNames[m.moves] {
			t.Errorf("%s moves %q, which is not an end-to-end metric", m.name, m.moves)
		}
	}
	for _, c := range []struct {
		kind      string
		got, want []metric
	}{{"end_to_end", spec.EndToEnd, e2eDefs}, {"per_layer", spec.PerLayer, layerDefs}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, want %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
}
