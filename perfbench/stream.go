package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"connectit"
	"connectit/internal/graph"
	"connectit/internal/ingest"
	"connectit/internal/parallel"
)

// streamSpec sizes the stream phase: the vertex counts of the Type ii and
// Type iii streams and the generator both draw their edges from.
type streamSpec struct {
	nII, nIII int
	gen       func(n int, seed uint64) []graph.Edge
}

const (
	producers  = 2
	batchEdges = 1024
	// queryGroup Connected calls are timed together, keeping each sample
	// well above timer resolution.
	queryGroup = 16
	// queryMix is the share of operations that are queries (90/10).
	queryMix = 0.10
	// minPasses is the fewest measured passes of each stream type.
	minPasses = 3
	// replayEpoch is the stream's default epoch size, the batch size the
	// kernel replay uses.
	replayEpoch = 4096
)

// streamKind is one stream type with its input and reference partition.
type streamKind struct {
	name  string
	cfg   connectit.Config
	n     int
	edges []graph.Edge
	want  []uint32
}

type passResult struct {
	secs   float64
	groups []float64 // per query group: mean Connected latency in µs
	stats  ingest.Stats
}

func (p passResult) rate(k *streamKind) float64 { return float64(len(k.edges)) / p.secs }

// streamPhase is closed loop, two producers: fresh streams alternating
// Type ii and Type iii, each pass driven to Sync.
type streamPhase struct {
	env
	spec     streamSpec
	kinds    []*streamKind
	untraced [][]passResult
	traced   [][]passResult
	i, pass  int
	pool     poolStats
	// allowed and spent are the phase's cumulative budget and use: a pass
	// cannot be cut, so a slice that overran leaves less to the next.
	allowed, spent time.Duration
}

// setup generates each stream type's edges and reference partition and
// runs one discarded, checked warm-up pass of each.
func (p *streamPhase) setup() {
	p.kinds = []*streamKind{
		{name: "typeii", n: p.spec.nII, cfg: connectit.Config{Algorithm: connectit.MustParseAlgorithm("lt;CRFA")}},
		{name: "typeiii", n: p.spec.nIII, cfg: connectit.Config{Algorithm: connectit.MustParseAlgorithm("uf;rem-cas;naive;splice")}},
	}
	for i, k := range p.kinds {
		k.edges = p.spec.gen(k.n, p.o.seed+uint64(i)+1)
		ref := newOracle(k.n)
		ref.add(k.edges)
		k.want = ref.labels()
	}
	for _, k := range p.kinds {
		p.run(k, nil)
	}
	p.untraced = make([][]passResult, len(p.kinds))
	p.traced = make([][]passResult, len(p.kinds))
}

// run runs one pass after a GC, so no collection of the earlier phases'
// garbage overlaps it.
func (p *streamPhase) run(k *streamKind, tr *tracer) passResult {
	p.pass++
	runtime.GC()
	return streamPass(k, p.o.seed<<8+uint64(p.pass), p.acc, tr)
}

// measure runs whole pairs of passes, Type ii then Type iii, until the
// phase's cumulative budget is used; traced runs alternate untraced and
// traced pairs.
func (p *streamPhase) measure(d time.Duration, last bool) {
	pool0 := parallel.PoolStats()
	p.allowed += d
	start := time.Now()
	defer func() { p.spent += time.Since(start) }()
	for ; ; p.i++ {
		b := p.i % 2
		if b == 0 && p.spent+time.Since(start) >= p.allowed {
			short := last && (len(p.untraced[0]) < minPasses || len(p.untraced[1]) < minPasses)
			if !short || time.Since(start) >= 3*d {
				break
			}
		}
		if p.tr != nil && p.i%4 >= 2 {
			p.traced[b] = append(p.traced[b], p.run(p.kinds[b], p.tr))
			continue
		}
		p.untraced[b] = append(p.untraced[b], p.run(p.kinds[b], nil))
	}
	p.pool.add(poolDelta(pool0, parallel.PoolStats()))
}

// finish records the phase's metrics. Stream creation is part of every
// timed pass, so the phase has no set-up time of its own.
func (p *streamPhase) finish() float64 {
	rates := make([]float64, len(p.kinds))
	for b, k := range p.kinds {
		var rs, groups []float64
		for _, r := range p.untraced[b] {
			rs = append(rs, r.rate(k))
			groups = append(groups, r.groups...)
		}
		if p.tr == nil {
			p.acc.op(len(groups) >= minSamplesP90, "stream: too few "+k.name+" query groups for p90")
		}
		rates[b] = median(rs)
		p.out[k.name+"_updates_per_s"] = rates[b]
		p.out[k.name+"_query_us_p90"] = quantile(groups, 0.9)
	}
	if p.tr == nil {
		return 0
	}

	p.pool.report(p.out, "stream")
	for b, k := range p.kinds {
		var st ingest.Stats
		var secs, tracedRates []float64
		for _, r := range p.untraced[b] {
			st.Updates += r.stats.Updates
			st.Filtered += r.stats.Filtered
			st.Epochs += r.stats.Epochs
			st.Rounds += r.stats.Rounds
			secs = append(secs, r.secs)
		}
		for _, r := range p.traced[b] {
			tracedRates = append(tracedRates, r.rate(k))
		}
		p.out["ingest.epochs_per_round."+k.name] = float64(st.Epochs) / float64(max(st.Rounds, 1))
		p.out["ingest.filtered_frac."+k.name] = float64(st.Filtered) / float64(max(st.Updates, 1))
		p.out["trace.overhead_frac.stream_"+k.name] = rates[b]/median(tracedRates) - 1

		rounds, total := replayKernel(k, p.acc)
		p.out["core.round_ms."+k.name] = median(rounds)
		p.out["ingest.engine_share."+k.name] = 1 - total/median(secs)

		width := runtime.GOMAXPROCS(1)
		one := p.run(k, nil)
		runtime.GOMAXPROCS(width)
		p.out["scale."+k.name] = rates[b] / one.rate(k)
	}
	return 0
}

// streamPass runs one pass: a fresh stream, two producers each sending
// every other 1024-edge batch and, after each batch, enough 16-query
// Connected groups to keep queries at queryMix of all operations, then
// Sync. The final partition is checked against the reference.
func streamPass(k *streamKind, seed uint64, acc *account, tr *tracer) passResult {
	st, err := connectit.NewStream(k.n, k.cfg)
	if err != nil {
		acc.op(false, "stream: "+err.Error())
		return passResult{secs: 1}
	}
	defer st.Close()
	groups := make([][]float64, producers)
	errs := make([]int64, producers)
	ops := make([]int64, producers)
	var wg sync.WaitGroup
	root := tr.begin("pass."+k.name, -1)
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(p)))
			n := k.n
			perBatch := batchEdges * queryMix / (1 - queryMix)
			credit := 0.0
			for lo := p * batchEdges; lo < len(k.edges); lo += producers * batchEdges {
				hi := min(lo+batchEdges, len(k.edges))
				s := tr.begin("stream.update_batch", root)
				if st.UpdateBatch(k.edges[lo:hi]) != nil {
					errs[p]++
				}
				tr.end(s)
				ops[p]++
				for credit += perBatch; credit >= queryGroup; credit -= queryGroup {
					t := time.Now()
					for q := 0; q < queryGroup; q++ {
						if _, err := st.Connected(uint32(rng.IntN(n)), uint32(rng.IntN(n))); err != nil {
							errs[p]++
						}
					}
					d := time.Since(t)
					ops[p] += queryGroup
					groups[p] = append(groups[p], float64(d)/1e3/queryGroup)
				}
			}
		}(p)
	}
	wg.Wait()
	st.Sync()
	res := passResult{secs: time.Since(start).Seconds(), stats: st.Stats()}
	tr.end(root)
	for p := range groups {
		acc.attempted.Add(ops[p])
		acc.fail("stream "+k.name+": Update or Connected error", errs[p])
		res.groups = append(res.groups, groups[p]...)
	}
	acc.checkPartition(st.Labels(), k.want, "stream "+k.name+" pass")
	return res
}

// replayKernel applies the pass's edges to a bare Incremental in
// epoch-sized ProcessBatch calls — the kernel work a pass contains without
// the stream engine around it — and returns each call's ms and the total
// in seconds.
func replayKernel(k *streamKind, acc *account) ([]float64, float64) {
	inc, err := connectit.MustCompile(k.cfg).NewIncremental(k.n)
	if err != nil {
		acc.op(false, "replay "+k.name+": "+err.Error())
		return nil, 0
	}
	var rounds []float64
	var total time.Duration
	batch := make([]graph.Edge, 0, replayEpoch)
	for lo := 0; lo < len(k.edges); lo += replayEpoch {
		// A copy: ProcessBatch may reorder its batch while deduplicating.
		batch = append(batch[:0], k.edges[lo:min(lo+replayEpoch, len(k.edges))]...)
		t := time.Now()
		inc.ProcessBatch(batch, nil)
		d := time.Since(t)
		total += d
		rounds = append(rounds, ms(d))
	}
	acc.checkPartition(inc.Labels(), k.want, "replay "+k.name)
	return rounds, total.Seconds()
}
