package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"connectit/internal/graph"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sliceQuantile returns the median over slices of each slice's
// q-quantile.
func sliceQuantile(slices [][]float64, q float64) float64 {
	per := make([]float64, 0, len(slices))
	for _, xs := range slices {
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

// minLen returns the size of the smallest slice, 0 when there are none.
func minLen(slices [][]float64) int {
	if len(slices) == 0 {
		return 0
	}
	n := len(slices[0])
	for _, xs := range slices[1:] {
		n = min(n, len(xs))
	}
	return n
}

// minSamplesP90 is the smallest sample with ten observations beyond its
// 90th percentile; a p90 drawn from fewer is a failed measurement.
const minSamplesP90 = 100

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// account counts the operations a run attempts and the ones that fail.
// A failure is anything the workload must not do: a wrong answer, an error
// from the program, a refused or unacknowledged frame, a probe never seen,
// or a measurement too small to support its percentile.
type account struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	reasons           map[string]int64
}

func newAccount() *account { return &account{reasons: make(map[string]int64)} }

// op records one attempted operation; ok=false records it as failed under
// reason.
func (a *account) op(ok bool, reason string) {
	a.attempted.Add(1)
	if !ok {
		a.fail(reason, 1)
	}
}

// fail records k failures of already-counted operations.
func (a *account) fail(reason string, k int64) {
	if k <= 0 {
		return
	}
	a.failed.Add(k)
	a.mu.Lock()
	a.reasons[reason] += k
	a.mu.Unlock()
}

// checkPartition counts one correctness check: got must induce exactly the
// partition of want.
func (a *account) checkPartition(got, want []uint32, what string) {
	a.op(samePartition(got, want), what+": wrong partition")
}

// samePartition reports whether two labelings of the same vertex set induce
// the same partition: the label map between them must be a bijection.
func samePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	n := len(a)
	ab := make([]uint32, n)
	ba := make([]uint32, n)
	for i := range ab {
		ab[i], ba[i] = graph.None, graph.None
	}
	for v := 0; v < n; v++ {
		x, y := a[v], b[v]
		if int(x) >= n || int(y) >= n {
			return false
		}
		if ab[x] == graph.None && ba[y] == graph.None {
			ab[x], ba[y] = y, x
		} else if ab[x] != y || ba[y] != x {
			return false
		}
	}
	return true
}

// oracle is the benchmark's own sequential union-find, independent of every
// kernel under test: the reference partition each output is checked
// against.
type oracle struct{ parent []uint32 }

func newOracle(n int) *oracle {
	o := &oracle{parent: make([]uint32, n)}
	for i := range o.parent {
		o.parent[i] = uint32(i)
	}
	return o
}

func (o *oracle) find(x uint32) uint32 {
	p := o.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

func (o *oracle) union(u, v uint32) {
	ru, rv := o.find(u), o.find(v)
	if ru == rv {
		return
	}
	if ru < rv {
		ru, rv = rv, ru
	}
	o.parent[ru] = rv
}

func (o *oracle) add(edges []graph.Edge) {
	for _, e := range edges {
		o.union(e.U, e.V)
	}
}

// labels returns each vertex's root.
func (o *oracle) labels() []uint32 {
	out := make([]uint32, len(o.parent))
	for v := range out {
		out[v] = o.find(uint32(v))
	}
	return out
}

// span is one traced call into a layer: its name, start and end relative
// to the tracer's epoch, and the span that caused it (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory and writes them when the run ends. A nil
// tracer records nothing, so the gated run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span that ran from start to end.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
	t.mu.Unlock()
}

// durations returns the durations, in ms, of every finished span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	return f.Close()
}
