package main

import (
	"fmt"
	"runtime"
	"time"

	"connectit"
	"connectit/internal/core"
	"connectit/internal/graph"
	"connectit/internal/parallel"
	"connectit/internal/sample"
	"connectit/internal/unionfind"
)

// staticSpec sizes the static phase: a generator for the input graph's
// edge list over n vertices.
type staticSpec struct {
	gen func(seed uint64) (n int, edges []graph.Edge)
}

// setupReps is how many times the static set-up builds and segments the
// graph; its set-up time is the median.
const setupReps = 3

// minSegments is the segment count the segmented backend must reach, so
// segment resolution is exercised and not a single-range special case.
const minSegments = 4

var backendNames = [2]string{"csr", "seg"}

// staticPhase is closed loop, one caller: DefaultConfig solves of the same
// graph on CSR and segmented alternately, a GC before each timed solve.
type staticPhase struct {
	env
	spec   staticSpec
	want   []uint32
	reps   [2]graph.Rep
	solver *connectit.Solver
	split  *splitSolver

	times  [2][]float64 // untraced whole solves, ms
	splits [2][]float64 // traced split solves, ms
	i      int
	pool   poolStats
	setupS float64
}

// setup generates the graph and builds the CSR graph and segments it
// setupReps times, timing the medians.
func (p *staticPhase) setup() {
	n, edges := p.spec.gen(p.o.seed)
	ref := newOracle(n)
	ref.add(edges)
	p.want = ref.labels()
	var builds, segs, totals []float64
	for rep := 0; rep < setupReps; rep++ {
		p.reps = [2]graph.Rep{}
		runtime.GC()
		t0 := time.Now()
		g := connectit.BuildGraph(n, edges)
		t1 := time.Now()
		// Every directed edge encodes to at least one byte, so this cap
		// yields at least minSegments segments.
		seg, err := connectit.TrySegment(g, uint64(g.NumDirectedEdges()/minSegments))
		t2 := time.Now()
		p.acc.op(err == nil && seg.NumSegments() >= minSegments, "static: segmenting failed or too few segments")
		if err != nil {
			return
		}
		p.reps = [2]graph.Rep{g, seg}
		builds = append(builds, t1.Sub(t0).Seconds())
		segs = append(segs, t2.Sub(t1).Seconds())
		totals = append(totals, t2.Sub(t0).Seconds())
	}
	p.out["graph.build_s"] = median(builds)
	p.out["graph.segment_s"] = median(segs)

	p.solver = connectit.MustCompile(connectit.DefaultConfig())
	p.split = newSplitSolver(connectit.DefaultConfig())
	p.setupS = median(totals)
}

// solve runs one whole, timed solve on backend b, checks it, and returns
// its time in ms.
func (p *staticPhase) solve(b int) float64 {
	runtime.GC()
	t := time.Now()
	labels, err := p.solver.ComponentsOn(p.reps[b])
	d := ms(time.Since(t))
	if err != nil {
		p.acc.op(false, "static: "+err.Error())
		return d
	}
	p.acc.checkPartition(labels, p.want, "static "+backendNames[b])
	return d
}

// measure solves for about d, alternating backends, after one discarded,
// checked warm-up solve per backend: the other phases' slices ran since
// the last one.
func (p *staticPhase) measure(d time.Duration, last bool) {
	if p.reps[0] == nil {
		return
	}
	for b := range p.reps {
		p.solve(b)
	}
	pool0 := parallel.PoolStats()
	start := time.Now()
	for ; ; p.i++ {
		now := time.Now()
		short := last && p.tr == nil && (len(p.times[0]) < minSamplesP90 || len(p.times[1]) < minSamplesP90)
		if now.Sub(start) >= d && (!short || now.Sub(start) >= 3*d) {
			break
		}
		b := p.i % 2
		// Traced runs follow each pair of whole solves with a pair of split
		// solves, one span per layer call, so tracing overhead is measured
		// against untraced solves of the same process.
		if p.tr != nil && p.i%4 >= 2 {
			runtime.GC()
			labels, t := p.split.solve(p.reps[b], backendNames[b], p.tr)
			p.splits[b] = append(p.splits[b], t)
			p.acc.checkPartition(labels, p.want, "static "+backendNames[b]+" split solve")
			continue
		}
		p.times[b] = append(p.times[b], p.solve(b))
	}
	p.pool.add(poolDelta(pool0, parallel.PoolStats()))
}

func (p *staticPhase) finish() float64 {
	for b, name := range backendNames {
		if p.tr == nil {
			p.acc.op(len(p.times[b]) >= minSamplesP90, "static: too few "+name+" solves for p90")
		}
		p.out[name+"_solve_ms_p50"] = quantile(p.times[b], 0.5)
		p.out[name+"_solve_ms_p90"] = quantile(p.times[b], 0.9)
	}
	if p.tr == nil || p.reps[0] == nil {
		return p.setupS
	}
	p.pool.report(p.out, "static")
	for b, name := range backendNames {
		p.out["finish.ms."+name] = median(p.tr.durations("finish." + name))
		p.out["trace.overhead_frac.static_"+name] = median(p.splits[b])/median(p.times[b]) - 1
		sweep := make([]float64, 0, 5)
		for k := 0; k < 5; k++ {
			runtime.GC()
			t := time.Now()
			core.MapEdges(p.reps[b])
			sweep = append(sweep, ms(time.Since(t)))
		}
		p.out["graph.sweep_ms."+name] = median(sweep)
	}
	p.out["sample.kout_ms"] = median(p.tr.durations("sample.kout.csr"))
	p.out["sample.frequent_ms"] = median(p.tr.durations("sample.frequent.csr"))
	seg := p.reps[1]
	p.out["graph.seg_bytes_per_edge"] = float64(seg.SizeBytes()) / float64(seg.NumDirectedEdges())
	cov, skipped := p.split.coverage(seg)
	p.out["sample.coverage"] = cov
	p.out["sample.skipped_edge_frac"] = skipped

	// Path lengths come from a separately compiled, instrumented runner, so
	// the counters never slow a timed solve.
	cfg := connectit.DefaultConfig()
	stats := &unionfind.Stats{}
	cfg.Stats = stats
	labels, _ := newSplitSolver(cfg).solve(p.reps[0], "csr", nil)
	p.acc.checkPartition(labels, p.want, "static instrumented solve")
	p.out["finish.tpl"] = float64(stats.TotalPathLength())
	p.out["finish.mpl"] = float64(stats.MaxPathLength())

	p.out["scale.csr_solve"] = speedup(func() float64 { return p.solve(0) })
	return p.setupS
}

// speedup times f (returning ms) three times at GOMAXPROCS=1 and three at
// the process's width, and returns the ratio of the medians: the speed-up
// at nproc over one processor.
func speedup(f func() float64) float64 {
	width := runtime.GOMAXPROCS(0)
	var one, all []float64
	runtime.GOMAXPROCS(1)
	for k := 0; k < 3; k++ {
		one = append(one, f())
	}
	runtime.GOMAXPROCS(width)
	for k := 0; k < 3; k++ {
		all = append(all, f())
	}
	return median(one) / median(all)
}

// splitSolver runs DefaultConfig's two phases as separate calls into each
// layer — sample.KOut, sample.MostFrequent, and the finish runner — the
// same sequence Solver.ComponentsOn runs internally, so each layer can be
// timed from outside.
type splitSolver struct {
	cfg  core.Config
	csr  *core.Runner[*graph.Graph]
	seg  *core.Runner[*graph.SegmentedGraph]
	skip []bool
}

func newSplitSolver(cfg core.Config) *splitSolver {
	fam, ok := core.FamilyOf(cfg.Algorithm.Kind)
	if !ok {
		panic(fmt.Sprintf("no family for %v", cfg.Algorithm.Kind))
	}
	return &splitSolver{cfg: cfg, csr: fam.Runners.CSR(cfg), seg: fam.Runners.Segmented(cfg)}
}

// solve runs one split solve on r and returns its labels and total time in
// ms, recording a span per layer call when tr is non-nil.
func (s *splitSolver) solve(r graph.Rep, name string, tr *tracer) ([]uint32, float64) {
	t := time.Now()
	root := tr.begin("solve."+name, -1)
	sp := tr.begin("sample.kout."+name, root)
	var res *sample.Result
	k := s.cfg.K
	if k == 0 {
		k = 2
	}
	switch g := r.(type) {
	case *graph.Graph:
		res = sample.KOut(g, k, s.cfg.KOutStrategy, s.cfg.Seed, false)
	case *graph.SegmentedGraph:
		res = sample.KOut(g, k, s.cfg.KOutStrategy, s.cfg.Seed, false)
	}
	tr.end(sp)

	sp = tr.begin("sample.frequent."+name, root)
	labels := res.Labels
	frequent := sample.MostFrequent(labels, s.cfg.Seed)
	if !res.Canonical {
		frequent = sample.Canonicalize(labels, frequent)
	}
	n := len(labels)
	if cap(s.skip) < n {
		s.skip = make([]bool, n)
	}
	skip := s.skip[:n]
	parallel.For(n, func(i int) { skip[i] = labels[i] == frequent })
	tr.end(sp)

	sp = tr.begin("finish."+name, root)
	switch g := r.(type) {
	case *graph.Graph:
		labels = s.csr.Finish(g, labels, skip)
	case *graph.SegmentedGraph:
		labels = s.seg.Finish(g, labels, skip)
	}
	tr.end(sp)
	tr.end(root)
	return labels, ms(time.Since(t))
}

// coverage returns, for the last solve, the share of vertices in the most
// frequent sampled component and the share of r's directed edges the
// finish skipped because their source is in it.
func (s *splitSolver) coverage(r graph.Rep) (vertices, edges float64) {
	skip := s.skip[:r.NumVertices()]
	in := parallel.Count(len(skip), func(i int) bool { return skip[i] })
	skipped := parallel.ReduceAdd(len(skip), func(i int) uint64 {
		if skip[i] {
			return uint64(r.Degree(graph.Vertex(i)))
		}
		return 0
	})
	return float64(in) / float64(len(skip)), float64(skipped) / float64(r.NumDirectedEdges())
}

// poolStats accumulates PoolStats deltas over a phase's measured slices.
type poolStats parallel.Stats

func poolDelta(a, b parallel.Stats) poolStats {
	return poolStats{
		Calls:      b.Calls - a.Calls,
		Sequential: b.Sequential - a.Sequential,
		Chunks:     b.Chunks - a.Chunks,
		Steals:     b.Steals - a.Steals,
		Wakes:      b.Wakes - a.Wakes,
		Parks:      b.Parks - a.Parks,
	}
}

func (p *poolStats) add(d poolStats) {
	p.Calls += d.Calls
	p.Sequential += d.Sequential
	p.Chunks += d.Chunks
	p.Steals += d.Steals
	p.Wakes += d.Wakes
	p.Parks += d.Parks
}

func (p poolStats) report(out results, phase string) {
	calls := float64(max(p.Calls, 1))
	out["pool.parks_per_call."+phase] = float64(p.Parks) / calls
	out["pool.steals_per_call."+phase] = float64(p.Steals) / calls
	out["pool.sequential_frac."+phase] = float64(p.Sequential) / float64(max(p.Calls+p.Sequential, 1))
}
