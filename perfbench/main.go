// Command perfbench is the repository's benchmark. One invocation runs one
// workload through three phases, each driven through the public API and
// checked against the benchmark's own reference union-find:
//
//   - static: closed loop, one caller, DefaultConfig solves alternating
//     between the CSR graph and its segmented encoding;
//   - stream: closed loop, two producers issuing 1024-edge UpdateBatch
//     calls and 90/10 groups of Connected queries, passes alternating
//     between a Type ii and a Type iii stream;
//   - serve: open loop of wire frames on one TCP connection into an
//     in-process server booted by WAL replay, at a low fixed rate with
//     the WAL's fsync off and a high one with it on, with an HTTP reader
//     timing when acked probe edges become visible.
//
// The workloads differ in the input family all three phases draw from.
// With --trace 0 the last line of standard output is a JSON object carrying
// every end-to-end metric; with --trace 1 it carries the per-layer metrics,
// taken by timing calls into each layer from this package and by reading
// the counters the program exposes, and the spans are written under
// --workdir. metrics.go lists every metric with the end-to-end metric it
// should move. Run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// Shares of --seconds given to each phase's measured loop.
const (
	shareStatic = 0.30
	shareStream = 0.35
	shareServe  = 0.35
)

type runOpts struct {
	seed    uint64
	seconds float64
	workdir string
}

// budget is the measured duration of a phase with the given share.
func (o runOpts) budget(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// results collects metric values by name.
type results map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// The measured time is cut into rounds. Static and stream run a slice in
// every round, serve in every other one (each serve slice boots a server
// per rate, each boot costing about a second). The slices interleave, so
// every metric samples the whole run rather than one stretch of it: on a
// shared host the machine's speed drifts by ±10% over a few seconds, and a
// phase measured in one block inherits its block's drift.
const (
	rounds      = 8
	serveRounds = rounds / 2
)

// env is what every phase shares: the run's options, its failure account,
// the tracer (nil when untraced) and the metric values.
type env struct {
	o   runOpts
	acc *account
	tr  *tracer
	out results
}

// phase is one of a workload's three phases.
type phase interface {
	// setup prepares the phase's inputs.
	setup()
	// measure runs the phase's measured loop for about d; last is set on
	// the final slice, which may run on to reach minimum sample counts.
	measure(d time.Duration, last bool)
	// finish records the phase's metrics and returns the median of its
	// set-up repetitions in seconds.
	finish() float64
}

// run executes every phase of w and returns the values of every metric
// (end-to-end and, when traced, per-layer). setup_s is the sum of the
// phases' set-up times.
func run(w workload, o runOpts, acc *account, tr *tracer) results {
	e := env{o: o, acc: acc, tr: tr, out: results{}}
	phases := []phase{
		&staticPhase{env: e, spec: w.static},
		&streamPhase{env: e, spec: w.stream},
		&servePhase{env: e, spec: w.serve},
	}
	shares := []float64{shareStatic, shareStream, shareServe}
	slices := []int{rounds, rounds, serveRounds}
	for _, p := range phases {
		p.setup()
	}
	release()
	for r := 1; r <= rounds; r++ {
		for i, p := range phases {
			if every := rounds / slices[i]; r%every == 0 {
				p.measure(o.budget(shares[i])/time.Duration(slices[i]), r == rounds)
			}
		}
	}
	setup := 0.0
	for _, p := range phases {
		setup += p.finish()
	}
	e.out["setup_s"] = setup
	return e.out
}

// release returns the previous phase's memory before the next phase sets
// up, so phases do not measure each other's garbage.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 30, "measured seconds, shared between the phases")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	workdir := flag.String("workdir", "", "directory for WAL files and span output (required)")
	source := flag.String("source", "unknown", "commit or source digest recorded with the result")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || *workdir == "" || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Println("env", environment(w.name, *seed, *source))
	line, err := runMain(w, runOpts{seed: *seed, seconds: float64(*seconds), workdir: *workdir}, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// runMain runs w in a fresh directory under o.workdir, which it removes,
// and returns the result line. A traced run also writes its spans under
// o.workdir.
func runMain(w workload, o runOpts, traced bool) (string, error) {
	workdir := o.workdir
	dir, err := os.MkdirTemp(workdir, fmt.Sprintf("%s-seed%d-", w.name, o.seed))
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir

	var tr *tracer
	if traced {
		tr = &tracer{t0: time.Now()}
	}
	acc := newAccount()
	vals := run(w, o, acc, tr)
	if tr != nil {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return "", err
		}
		fmt.Println("spans", path)
	}
	for _, r := range slices.Sorted(maps.Keys(acc.reasons)) {
		fmt.Fprintf(os.Stderr, "failed %d: %s\n", acc.reasons[r], r)
	}
	rep, err := buildReport(acc, vals, traced)
	if err != nil {
		return "", err
	}
	line, err := json.Marshal(rep)
	return string(line), err
}

// buildReport assembles the result line: the end-to-end metrics, or the
// per-layer ones when traced, each of which must have been measured.
func buildReport(acc *account, vals results, traced bool) (report, error) {
	rep := report{
		Attempted: acc.attempted.Load(),
		Failed:    acc.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	for _, m := range metricDefs {
		if m.layer != traced {
			continue
		}
		v, ok := vals[m.name]
		if !ok {
			return rep, fmt.Errorf("metric not measured: %s", m.name)
		}
		rep.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// environment describes where and on what a result was measured.
func environment(workload string, seed uint64, source string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("workload=%s seed=%d nproc=%d gomaxprocs=%d cpu=%q go=%s source=%s",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), source)
}
