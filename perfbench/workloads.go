package main

import (
	"math/rand/v2"
	"slices"
	"sync"

	"connectit/internal/graph"
)

// workload is one input family, fed to all three phases.
type workload struct {
	name, why string
	static    staticSpec
	stream    streamSpec
	serve     serveSpec
}

// The two workloads differ in how endpoints are drawn, which is what the
// sampling, pre-filter and wire-coding mechanisms depend on. Measured on a
// 2-core host: on skewed inputs k-out sampling covers about 66% of the
// static graph's vertices (RMAT leaves many isolated) and the stream
// pre-filter drops about half the updates; on uniform inputs sampling
// covers 99.9%, the pre-filter drops 87%, and frames cost 5.7 bytes per
// edge against 5.2.
var workloads = []workload{
	{
		name: "skewed",
		why:  "power-law inputs (RMAT graph, Barabasi-Albert stream, RMAT frames): hubs and many isolated vertices, so sampling covers 2/3 and the pre-filter drops half the updates",
		static: staticSpec{gen: func(seed uint64) (int, []graph.Edge) {
			const scale = 18
			return 1 << scale, inParallel(16<<scale, seed, func(m int, seed uint64) []graph.Edge {
				return graph.RMATEdges(scale, m, 0.57, 0.19, 0.19, seed)
			})
		}},
		stream: streamSpec{
			nII: 1 << 17, nIII: 1 << 20,
			gen: func(n int, seed uint64) []graph.Edge { return graph.BarabasiAlbertEdges(n, 8, seed) },
		},
		serve: serveSpec{
			n: 1 << 22, prepared: 2 << 20,
			gen: func(n, m int, seed uint64) []graph.Edge {
				return inParallel(m, seed, func(m int, seed uint64) []graph.Edge {
					return graph.RMATEdges(22, m, 0.5, 0.1, 0.1, seed)
				})
			},
		},
	},
	{
		name: "uniform",
		why:  "uniform random endpoints in every phase: no hubs or isolated vertices, so sampling covers all, the pre-filter drops most updates and frames compress least",
		static: staticSpec{gen: func(seed uint64) (int, []graph.Edge) {
			const n = 1 << 18
			return n, uniformEdges(n, 4*n, seed)
		}},
		stream: streamSpec{
			nII: 1 << 17, nIII: 1 << 20,
			gen: func(n int, seed uint64) []graph.Edge { return uniformEdges(n, 8*n, seed) },
		},
		serve: serveSpec{n: 1 << 22, prepared: 2 << 20, gen: uniformEdges},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genChunks is how many independently seeded chunks inParallel splits a
// generator into; fixed, so inputs do not depend on the processor count.
const genChunks = 8

// inParallel generates m edges in genChunks concurrent chunks, chunk i
// from gen(size, seed*genChunks+i), concatenated in chunk order.
func inParallel(m int, seed uint64, gen func(m int, seed uint64) []graph.Edge) []graph.Edge {
	chunks := make([][]graph.Edge, genChunks)
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := m*i/len(chunks), m*(i+1)/len(chunks)
			chunks[i] = gen(hi-lo, seed*genChunks+uint64(i))
		}(i)
	}
	wg.Wait()
	return slices.Concat(chunks...)
}

// uniformEdges draws m edges with independent uniform endpoints in [0, n).
func uniformEdges(n, m int, seed uint64) []graph.Edge {
	rng := rand.New(rand.NewPCG(seed, 0x756e69666f726d))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(rng.IntN(n)), V: uint32(rng.IntN(n))}
	}
	return edges
}
