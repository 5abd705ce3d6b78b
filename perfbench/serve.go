package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"connectit"
	"connectit/internal/graph"
	"connectit/internal/server"
	"connectit/internal/wal"
	"connectit/internal/wire"
)

// serveSpec sizes the serve phase: the vertex universe the frames draw
// from, the edges in the log the server boots from, and their generator.
type serveSpec struct {
	n, prepared int
	gen         func(n, m int, seed uint64) []graph.Edge
}

const (
	frameEdges = 1024
	// The two fixed rates, in edges per second. On a 2-core host the serial
	// part of a group commit (decode, fsynced append, apply) costs about
	// 0.35 ms per 1000-edge group, about 3M edges/s, so these are roughly a
	// sixth and two fifths of capacity; at 2M edges/s the high-rate tail
	// already swung by a quarter between runs.
	loRate = 500_000
	hiRate = 1_200_000
	// The low rate runs against a server whose WAL skips fsync, the high
	// rate against one that fsyncs every group. A group at the low rate
	// holds one frame, so its ack would wait on every single fsync, and on
	// a shared disk the fsync tail swings between seconds (p90 of a 4 KiB
	// write+fsync every 2 ms ranged 0.4-3.5 ms from one second to the
	// next): the low-rate p90 spread 29% between runs of the same code. The
	// low rate thus measures the group commit's wait and write, the high
	// rate the whole durable write path, whose groups amortise the fsync.
	loFsync = false
	hiFsync = true
	// probesPerSec is how many acked probe edges per second the HTTP
	// reader checks for visibility.
	probesPerSec = 100
	// A rate phase is invalid when a frame leaves more than maxLate after
	// its due time, or when more than maxBacklog of frames (in seconds of
	// schedule) are unacked at the schedule's end.
	maxLate    = 100 * time.Millisecond
	maxBacklog = 0.25
	// drainTimeout bounds the wait for the last acks and probes.
	drainTimeout = 10 * time.Second
	// preparedGroup is the record size of the log the server boots from.
	preparedGroup = 8192
)

// ratePhase is one fixed-rate schedule of frames, consumed slice by slice.
type ratePhase struct {
	name     string
	rate     float64
	fsync    bool // the server's WAL fsyncs each group
	interval time.Duration
	frames   [][]byte     // encoded wire frames, length-prefixed
	edges    []graph.Edge // frame i's edges, sorted, at [i*frameEdges, (i+1)*frameEdges)
	probes   []graph.Edge // the fresh probe edge carried by each frame
	next     int          // first frame not yet sent
}

// serveInputs is everything the serve phase sends, generated before the
// server boots.
type serveInputs struct {
	n        int // universe: spec.n plus two fresh probe vertices per frame
	prepared []graph.Edge
	bootWant []uint32 // reference partition of the prepared edges
	phases   []*ratePhase
	edges    int // frame edges in total
	bytes    int // frame bytes in total
}

// makeServeInputs generates the prepared edges and, for each rate, the
// frames a run of o.seconds can send: each frame holds frameEdges-1 edges
// from the workload's generator plus one probe edge joining two vertices
// no other edge touches, so the probe reads as connected only once its
// frame is applied.
func makeServeInputs(sp serveSpec, o runOpts) *serveInputs {
	dur := o.budget(shareServe).Seconds() / 2
	rates := []struct {
		name  string
		rate  float64
		fsync bool
	}{{"lo", loRate, loFsync}, {"hi", hiRate, hiFsync}}
	total := 0
	counts := make([]int, len(rates))
	for i, r := range rates {
		counts[i] = int(r.rate * dur / frameEdges)
		total += counts[i]
	}
	in := &serveInputs{n: sp.n + 2*total}
	in.prepared = sp.gen(sp.n, sp.prepared, o.seed)
	ref := newOracle(in.n)
	ref.add(in.prepared)
	in.bootWant = ref.labels()

	random := sp.gen(sp.n, total*(frameEdges-1), o.seed+1)
	probe := uint32(sp.n)
	for i, r := range rates {
		ph := &ratePhase{name: r.name, rate: r.rate, fsync: r.fsync, interval: time.Duration(float64(time.Second) * frameEdges / r.rate)}
		ph.edges = make([]graph.Edge, 0, counts[i]*frameEdges)
		for f := 0; f < counts[i]; f++ {
			lo := len(ph.edges)
			ph.edges = append(ph.edges, random[:frameEdges-1]...)
			random = random[frameEdges-1:]
			p := graph.Edge{U: probe, V: probe + 1}
			probe += 2
			ph.edges = append(ph.edges, p)
			batch := ph.edges[lo:]
			slices.SortFunc(batch, compareEdges)
			frame := wire.AppendFrame(nil, batch)
			ph.frames = append(ph.frames, frame)
			ph.probes = append(ph.probes, p)
			in.edges += len(batch)
			in.bytes += len(frame)
		}
		in.phases = append(in.phases, ph)
	}
	return in
}

// compareEdges orders edges by U, then V: the order frames and log records
// are sent in, which the wire coding's deltas favour.
func compareEdges(a, b graph.Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// writePreparedLog writes the edges the server boots from as a WAL in dir,
// in group-sized sorted records, as an earlier run of the server would
// have left them.
func writePreparedLog(dir string, edges []graph.Edge) error {
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	rec := make([]graph.Edge, 0, preparedGroup)
	for lo := 0; lo < len(edges); lo += preparedGroup {
		rec = append(rec[:0], edges[lo:min(lo+preparedGroup, len(edges))]...)
		slices.SortFunc(rec, compareEdges)
		if _, err := l.Append(rec); err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	return l.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// booted is a running server with the stream it serves.
type booted struct {
	st  *connectit.Stream
	srv *server.Server
	dir string
}

func (b *booted) close() error { return b.srv.Close(context.Background()) }

// boot starts a server on a copy of the prepared log: stream allocation,
// WAL replay and listener start, as a restarted server would. fsync selects
// whether its WAL fsyncs each group.
func boot(in *serveInputs, prepDir, dir string, fsync bool) (*booted, time.Duration, error) {
	if err := copyDir(prepDir, dir); err != nil {
		return nil, 0, err
	}
	t := time.Now()
	st, err := connectit.NewStream(in.n, connectit.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(st, server.Options{
		Addr:             "127.0.0.1:0",
		IngestAddr:       "127.0.0.1:0",
		WALDir:           dir,
		SnapshotInterval: -1,
		NoSync:           !fsync,
	})
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	if err := srv.Start(); err != nil {
		srv.Close(context.Background())
		return nil, 0, err
	}
	return &booted{st: st, srv: srv, dir: dir}, time.Since(t), nil
}

// servePhase is open loop: wire frames on one TCP connection into an
// in-process server booted by WAL replay, each measured slice running the
// low rate and then the high rate, while an HTTP reader times when acked
// probe edges become visible. Each rate of each slice boots its own server
// from a copy of the prepared log and closes it afterwards, so no idle
// server shares the processors with the other phases' slices; the boots
// are the phase's set-up repetitions.
type servePhase struct {
	env
	spec    serveSpec
	in      *serveInputs
	prepDir string
	slice   int

	boots      []float64
	acks       [2][][]float64 // per rate, per slice
	visible    [][]float64    // per slice
	lateMax    time.Duration
	backlogMax int
	walLo      [3]float64  // appends, edges and bytes over the low-rate slices
	counters   metricsText // /metrics deltas summed over the slices
}

// walSeries are the /metrics counters summed over the low-rate slices.
var walSeries = [3]string{"connectit_wal_appends_total", "connectit_wal_appended_edges_total", "connectit_wal_bytes_total"}

// checkedPerRate acked edges of each rate's slice are re-checked over
// HTTP once the slice is acked.
const checkedPerRate = 25

// setup generates the frames and writes the log every slice's server
// boots from.
func (p *servePhase) setup() {
	p.in = makeServeInputs(p.spec, p.o)
	p.prepDir = filepath.Join(p.o.workdir, "prepared")
	p.counters = metricsText{}
	if err := writePreparedLog(p.prepDir, p.in.prepared); err != nil {
		p.acc.op(false, "serve: writing the prepared log: "+err.Error())
		p.in = nil
	}
}

// measure runs the next d/2 of each rate's schedule, each against a server
// of its own.
func (p *servePhase) measure(d time.Duration, _ bool) {
	if p.in == nil {
		return
	}
	p.slice++
	var vis []float64
	for i, ph := range p.in.phases {
		vis = append(vis, p.measureRate(i, ph, d/2)...)
	}
	p.visible = append(p.visible, vis)
}

// measureRate boots a server, checks its replayed state, runs the next d of
// ph's schedule against it, and closes it, checking that its final state
// holds exactly the prepared edges and the frames sent. It returns the
// probes' ack-to-visible latencies.
func (p *servePhase) measureRate(i int, ph *ratePhase, d time.Duration) []float64 {
	release()
	b, bootTime, err := boot(p.in, p.prepDir, filepath.Join(p.o.workdir, fmt.Sprintf("boot%d-%s", p.slice, ph.name)), ph.fsync)
	if err != nil {
		p.acc.op(false, "serve: boot: "+err.Error())
		return nil
	}
	defer os.RemoveAll(b.dir)
	p.boots = append(p.boots, bootTime.Seconds())
	p.acc.checkPartition(b.st.Labels(), p.in.bootWant, "serve: state after WAL replay")
	want := &oracle{parent: slices.Clone(p.in.bootWant)}

	c, err := dialIngest(b.srv.IngestAddr())
	if err != nil {
		p.acc.op(false, "serve: "+err.Error())
		b.close()
		return nil
	}
	base := "http://" + b.srv.Addr()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 5 * time.Second}
	before := scrape(hc, base)
	rng := rand.New(rand.NewPCG(p.o.seed, uint64(2*p.slice+i)))
	k := min(int(ph.rate*d.Seconds()/frameEdges), len(ph.frames)-ph.next)
	runtime.GC()
	r := c.run(ph, ph.next, ph.next+k, hc, base, p.acc, p.tr)
	sent := ph.edges[ph.next*frameEdges : (ph.next+k)*frameEdges]
	want.add(sent)
	ph.next += k
	// A sample of the acked edges must read as connected.
	for j := 0; j < checkedPerRate && len(sent) > 0; j++ {
		ok, err := connectedHTTP(hc, base, sent[rng.IntN(len(sent))])
		p.acc.op(err == nil && ok, "serve "+ph.name+": acked edge not connected")
	}
	p.acks[i] = append(p.acks[i], r.acks)
	p.lateMax = max(p.lateMax, r.lateMax)
	p.backlogMax = max(p.backlogMax, r.backlog)
	// Invalid, not fast: a generator that fell behind its schedule offered
	// less load than the slice claims.
	p.acc.op(r.lateMax <= maxLate, "serve "+ph.name+": generator ran late")
	p.acc.op(float64(r.backlog) <= maxBacklog*ph.rate/frameEdges, "serve "+ph.name+": backlog grew")
	c.close()
	after := scrape(hc, base)
	if p.tr != nil && i == 0 {
		for j, series := range walSeries {
			p.walLo[j] += after.delta(before, series)
		}
	}
	p.counters.addDelta(after, before)
	hc.CloseIdleConnections()
	p.acc.op(b.close() == nil, "serve: close")
	p.acc.checkPartition(b.st.Labels(), want.labels(), "serve: final state")
	return r.visible
}

// finish records the phase's metrics and returns the median boot time.
// Each latency metric is the median over slices of the slice's own
// percentile, so one slice hit by a storage stall cannot move it.
func (p *servePhase) finish() float64 {
	for i, ph := range []string{"lo", "hi"} {
		if p.tr == nil {
			p.acc.op(minLen(p.acks[i]) >= minSamplesP90, "serve: too few "+ph+" acks per slice for p90")
		}
		p.out[ph+"_ack_ms_p50"] = sliceQuantile(p.acks[i], 0.5)
		p.out[ph+"_ack_ms_p90"] = sliceQuantile(p.acks[i], 0.9)
	}
	if p.tr == nil {
		p.acc.op(minLen(p.visible) >= minSamplesP90, "serve: too few visibility probes per slice for p90")
	}
	p.out["visible_ms_p50"] = sliceQuantile(p.visible, 0.5)
	p.out["visible_ms_p90"] = sliceQuantile(p.visible, 0.9)
	if p.tr != nil && p.in != nil {
		p.out["wal.edges_per_group"] = p.walLo[1] / max(p.walLo[0], 1)
		p.out["wal.bytes_per_edge"] = p.walLo[2] / max(p.walLo[1], 1)
		p.out["server.backpressure"] = p.counters["connectit_backpressure_total"]
		p.out["server.connected_ms_p50"] = connectedP50(p.counters)
		p.out["gen.late_ms_max"] = ms(p.lateMax)
		p.out["gen.backlog_frames"] = float64(p.backlogMax)
		serveLayers(p.in, p.prepDir, p.o, p.acc, p.tr, p.out, max(1, int(p.walLo[1]/max(p.walLo[0], 1))), sliceQuantile(p.acks[0], 0.5))
	}
	return median(p.boots)
}

// ingestConn is a raw CEW1 connection: frames go out in schedule order and
// acks are matched to them first-in-first-out by their frame count.
type ingestConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialIngest(addr string) (*ingestConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	var hello [12]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || string(hello[:4]) != wire.Magic {
		conn.Close()
		return nil, fmt.Errorf("ingest hello failed: %v", err)
	}
	return &ingestConn{conn: conn, br: br}, nil
}

func (c *ingestConn) close() { c.conn.Close() }

type phaseResult struct {
	acks    []float64 // ms from due time to ack, per frame
	visible []float64 // ms from ack to the first read that saw the probe
	lateMax time.Duration
	backlog int // frames unacked when the schedule ended
}

// run sends ph's frames [lo, hi) on schedule, each timed from its due
// time, while one goroutine matches acks and another polls /v1/connected
// for a sample of acked probe edges. It returns once every frame is acked
// or has failed.
func (c *ingestConn) run(ph *ratePhase, lo, hi int, hc *http.Client, base string, acc *account, tr *tracer) phaseResult {
	n := hi - lo
	res := phaseResult{acks: make([]float64, 0, n)}
	every := max(1, int(ph.rate/frameEdges/probesPerSec))
	type probe struct {
		e   graph.Edge
		ack time.Time
	}
	probes := make(chan probe, n/every+1)
	var acked atomic.Int64
	var wg sync.WaitGroup
	root := tr.begin("serve."+ph.name, -1)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * ph.interval) }

	// Ack matcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(probes)
		var hdr [wire.AckSize]byte
		for next := 0; next < n; {
			c.conn.SetReadDeadline(time.Now().Add(drainTimeout))
			if _, err := io.ReadFull(c.br, hdr[:1]); err != nil {
				acc.fail("serve "+ph.name+": frame never acked: "+err.Error(), int64(n-next))
				return
			}
			if hdr[0] != wire.AckOK {
				var l [4]byte
				io.ReadFull(c.br, l[:])
				msg := make([]byte, min(binary.LittleEndian.Uint32(l[:]), 1<<16))
				io.ReadFull(c.br, msg)
				acc.fail(fmt.Sprintf("serve %s: ack status %d: %s", ph.name, hdr[0], msg), int64(n-next))
				return
			}
			if _, err := io.ReadFull(c.br, hdr[1:]); err != nil {
				acc.fail("serve "+ph.name+": torn ack", int64(n-next))
				return
			}
			now := time.Now()
			_, k := wire.ParseAckOK(hdr[1:])
			for end := min(next+int(k), n); next < end; next++ {
				d := due(next)
				res.acks = append(res.acks, ms(now.Sub(d)))
				tr.record("serve.frame", root, d, now)
				if next%every == 0 {
					probes <- probe{ph.probes[lo+next], now}
				}
			}
			acked.Store(int64(next))
		}
	}()

	// Visibility reader: one keep-alive HTTP connection.
	var vis []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range probes {
			s := tr.begin("serve.visible", root)
			for {
				ok, err := connectedHTTP(hc, base, p.e)
				if err != nil {
					acc.op(false, "serve "+ph.name+": /v1/connected: "+err.Error())
					break
				}
				if ok {
					acc.op(true, "")
					vis = append(vis, ms(time.Since(p.ack)))
					break
				}
				if time.Since(p.ack) > drainTimeout {
					acc.op(false, "serve "+ph.name+": acked probe never visible")
					break
				}
			}
			tr.end(s)
		}
	}()

	for i, f := range ph.frames[lo:hi] {
		d := due(i)
		if w := time.Until(d); w > 0 {
			time.Sleep(w)
		}
		res.lateMax = max(res.lateMax, time.Since(d))
		acc.attempted.Add(1)
		if _, err := c.conn.Write(f); err != nil {
			// The matcher counts every unacked frame as failed; closing
			// the connection ends its wait.
			acc.attempted.Add(int64(n - i - 1))
			c.close()
			break
		}
	}
	res.backlog = n - int(acked.Load())
	wg.Wait()
	tr.end(root)
	res.visible = vis
	return res
}

// connectedHTTP asks the server whether e's endpoints are connected.
func connectedHTTP(hc *http.Client, base string, e graph.Edge) (bool, error) {
	resp, err := hc.Get(fmt.Sprintf("%s/v1/connected?u=%d&v=%d", base, e.U, e.V))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Connected bool `json:"connected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	return body.Connected, nil
}

// metricsText is one /metrics exposition, by series (name plus labels).
type metricsText map[string]float64

func scrape(hc *http.Client, base string) metricsText {
	m := metricsText{}
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return m
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m
}

func (m metricsText) delta(prev metricsText, series string) float64 { return m[series] - prev[series] }

// addDelta adds every series' change from before to after into m.
func (m metricsText) addDelta(after, before metricsText) {
	for k, v := range after {
		m[k] += v - before[k]
	}
}

// connectedP50 interpolates the median /v1/connected handler latency, in
// ms, from the histogram's bucket counts in m.
func connectedP50(m metricsText) float64 {
	const prefix = `connectit_http_request_seconds_bucket{handler="connected",le="`
	type bucket struct{ le, count float64 }
	var bs []bucket
	for k, v := range m {
		if le, ok := strings.CutPrefix(k, prefix); ok {
			f, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				continue // +Inf
			}
			bs = append(bs, bucket{f, v})
		}
	}
	slices.SortFunc(bs, func(x, y bucket) int { return cmp.Compare(x.le, y.le) })
	total := m[`connectit_http_request_seconds_count{handler="connected"}`]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	lo, prev := 0.0, 0.0
	for _, bk := range bs {
		if bk.count >= total/2 {
			return 1e3 * (lo + (bk.le-lo)*(total/2-prev)/max(bk.count-prev, 1))
		}
		lo, prev = bk.le, bk.count
	}
	return 1e3 * lo
}

// serveLayers times the serve path's layers from outside: wire decode of
// the sent frames, fsynced and unsynced WAL appends of group-sized batches,
// replay of the prepared log, and one group's apply into a Type i stream,
// and reads the server's own counters. group is the mean low-rate group
// size.
func serveLayers(in *serveInputs, prepDir string, o runOpts, acc *account, tr *tracer, out results, group int, loAckP50 float64) {
	out["wire.bytes_per_edge"] = float64(in.bytes) / float64(in.edges)
	var frames [][]byte
	for _, ph := range in.phases {
		frames = append(frames, ph.frames...)
	}
	var dec []graph.Edge
	var decodes []float64
	for rep := 0; rep < 3; rep++ {
		sp := tr.begin("wire.decode", -1)
		t := time.Now()
		for _, f := range frames {
			var err error
			dec, _, err = wire.DecodeBlock(f[4:], dec[:0])
			if err != nil {
				acc.op(false, "wire: decoding a sent frame: "+err.Error())
				return
			}
		}
		decodes = append(decodes, float64(time.Since(t))/float64(in.edges))
		tr.end(sp)
	}
	decodeNs := median(decodes)
	out["wire.decode_ns_per_edge"] = decodeNs

	// Fsynced appends (as the high-rate server makes them), unsynced ones
	// (as the low-rate server makes them) and Type i applies of
	// group-sized batches of the low-rate frames' edges, in the order the
	// server saw them.
	edges := in.phases[0].edges
	edges = edges[:min(len(edges), 400*frameEdges)]
	l, err := wal.Open(filepath.Join(o.workdir, "append"), wal.Options{})
	if err != nil {
		acc.op(false, "wal: "+err.Error())
		return
	}
	ul, err := wal.Open(filepath.Join(o.workdir, "append-nosync"), wal.Options{NoSync: true})
	if err != nil {
		l.Close()
		acc.op(false, "wal: "+err.Error())
		return
	}
	st, err := connectit.NewStream(in.n, connectit.DefaultConfig())
	if err != nil {
		acc.op(false, "server apply: "+err.Error())
		return
	}
	var appends, unsynced, applies []float64
	for lo := 0; lo+group <= len(edges); lo += group {
		batch := edges[lo : lo+group]
		sp := tr.begin("wal.append", -1)
		t := time.Now()
		_, err := l.Append(batch)
		appends = append(appends, ms(time.Since(t)))
		tr.end(sp)
		acc.op(err == nil, "wal: append")
		t = time.Now()
		_, err = ul.Append(batch)
		unsynced = append(unsynced, ms(time.Since(t)))
		acc.op(err == nil, "wal: unsynced append")
		sp = tr.begin("server.apply", -1)
		t = time.Now()
		err = st.UpdateBatch(batch)
		applies = append(applies, ms(time.Since(t)))
		tr.end(sp)
		acc.op(err == nil, "server apply: UpdateBatch")
	}
	acc.op(l.Close() == nil, "wal: close")
	acc.op(ul.Close() == nil, "wal: close")
	st.Close()
	out["wal.append_ms_p50"] = quantile(appends, 0.5)
	out["wal.append_ms_p90"] = quantile(appends, 0.9)
	out["server.apply_ms"] = median(applies)
	out["server.batch_wait_ms"] = loAckP50 - decodeNs*float64(group)/1e6 - median(unsynced) - median(applies)

	rl, err := wal.Open(prepDir, wal.Options{NoSync: true})
	if err != nil {
		acc.op(false, "wal: "+err.Error())
		return
	}
	replayed := 0
	sp := tr.begin("wal.replay", -1)
	t := time.Now()
	err = rl.Replay(0, func(_ uint64, e []graph.Edge) error { replayed += len(e); return nil })
	secs := time.Since(t).Seconds()
	tr.end(sp)
	rl.Close()
	acc.op(err == nil && replayed == len(in.prepared), "wal: replay of the prepared log")
	out["wal.replay_edges_per_s"] = float64(replayed) / secs
}
