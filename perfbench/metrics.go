package main

// metricDef is one reported metric. For a per-layer metric, moves names
// the end-to-end metric it should move; every workload reports every
// metric, since every workload runs all three phases.
type metricDef struct {
	name, unit, better string
	layer              bool
	moves              string
}

func e2e(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better}
}

func layer(name, unit, better, moves string) metricDef {
	return metricDef{name: name, unit: unit, better: better, layer: true, moves: moves}
}

// metricDefs is the benchmark's metric catalogue, in report order.
// BENCHMARK.json lists the same names, units and directions.
var metricDefs = []metricDef{
	// Set-up: median CSR build + segmenting, plus median server boot by WAL
	// replay (stream allocation, replay, listener start).
	e2e("setup_s", "s", "lower"),

	// Static phase: wall-clock time per DefaultConfig solve.
	e2e("csr_solve_ms_p50", "ms", "lower"),
	e2e("csr_solve_ms_p90", "ms", "lower"),
	e2e("seg_solve_ms_p50", "ms", "lower"),
	e2e("seg_solve_ms_p90", "ms", "lower"),

	// Stream phase: median pass throughput (updates over the pass, ending at
	// Sync) and the p90 over query groups of the mean Connected latency in
	// the group.
	e2e("typeii_updates_per_s", "1/s", "higher"),
	e2e("typeiii_updates_per_s", "1/s", "higher"),
	e2e("typeii_query_us_p90", "us", "lower"),
	e2e("typeiii_query_us_p90", "us", "lower"),

	// Serve phase: ack latency from each frame's due time, at the low rate
	// into a server whose WAL skips fsync and at the high rate into one that
	// fsyncs every group, and ack-to-visible latency of sampled probe edges.
	e2e("lo_ack_ms_p50", "ms", "lower"),
	e2e("lo_ack_ms_p90", "ms", "lower"),
	e2e("hi_ack_ms_p50", "ms", "lower"),
	e2e("hi_ack_ms_p90", "ms", "lower"),
	e2e("visible_ms_p50", "ms", "lower"),
	e2e("visible_ms_p90", "ms", "lower"),

	// internal/graph
	layer("graph.build_s", "s", "lower", "setup_s"),
	layer("graph.segment_s", "s", "lower", "setup_s"),
	layer("graph.sweep_ms.csr", "ms", "lower", "csr_solve_ms_p50"),
	layer("graph.sweep_ms.seg", "ms", "lower", "seg_solve_ms_p50"),
	layer("graph.seg_bytes_per_edge", "B/edge", "lower", "seg_solve_ms_p50"),

	// internal/sample
	layer("sample.kout_ms", "ms", "lower", "csr_solve_ms_p50"),
	layer("sample.frequent_ms", "ms", "lower", "csr_solve_ms_p50"),
	layer("sample.coverage", "ratio", "higher", "csr_solve_ms_p50"),
	layer("sample.skipped_edge_frac", "ratio", "higher", "csr_solve_ms_p50"),

	// Finish: internal/core runners over internal/unionfind.
	layer("finish.ms.csr", "ms", "lower", "csr_solve_ms_p50"),
	layer("finish.ms.seg", "ms", "lower", "seg_solve_ms_p50"),
	layer("finish.tpl", "count", "lower", "csr_solve_ms_p50"),
	layer("finish.mpl", "count", "lower", "csr_solve_ms_p90"),

	// internal/parallel: PoolStats deltas over each phase's measured loop,
	// and speed-up at nproc over one processor (below 1 is a bug).
	layer("pool.parks_per_call.static", "ratio", "lower", "csr_solve_ms_p90"),
	layer("pool.steals_per_call.static", "ratio", "lower", "csr_solve_ms_p90"),
	layer("pool.sequential_frac.static", "ratio", "lower", "csr_solve_ms_p90"),
	layer("pool.parks_per_call.stream", "ratio", "lower", "typeii_updates_per_s"),
	layer("pool.steals_per_call.stream", "ratio", "lower", "typeii_updates_per_s"),
	layer("pool.sequential_frac.stream", "ratio", "lower", "typeii_updates_per_s"),
	layer("scale.csr_solve", "ratio", "higher", "csr_solve_ms_p50"),
	layer("scale.typeii", "ratio", "higher", "typeii_updates_per_s"),
	layer("scale.typeiii", "ratio", "higher", "typeiii_updates_per_s"),

	// internal/core Incremental: ProcessBatch replay of the pass's edges in
	// epoch-sized batches.
	layer("core.round_ms.typeii", "ms", "lower", "typeii_updates_per_s"),
	layer("core.round_ms.typeiii", "ms", "lower", "typeiii_updates_per_s"),

	// internal/ingest: Stream.Stats over the untraced passes, and the share
	// of pass time not spent in the replayed kernel. The replay applies
	// every edge while the stream's pre-filter drops some first, so the
	// share goes negative when the pre-filter saves more than the engine
	// costs.
	layer("ingest.epochs_per_round.typeii", "ratio", "higher", "typeii_updates_per_s"),
	layer("ingest.epochs_per_round.typeiii", "ratio", "higher", "typeiii_query_us_p90"),
	layer("ingest.filtered_frac.typeii", "ratio", "higher", "typeii_updates_per_s"),
	layer("ingest.filtered_frac.typeiii", "ratio", "higher", "typeiii_updates_per_s"),
	layer("ingest.engine_share.typeii", "ratio", "lower", "typeii_updates_per_s"),
	layer("ingest.engine_share.typeiii", "ratio", "lower", "typeiii_updates_per_s"),

	// internal/wire: the frames the serve phase sent.
	layer("wire.bytes_per_edge", "B/edge", "lower", "hi_ack_ms_p50"),
	layer("wire.decode_ns_per_edge", "ns/edge", "lower", "hi_ack_ms_p50"),

	// internal/wal: fsynced appends of group-sized batches in a scratch
	// log (the high-rate server's write), /metrics deltas over the low-rate
	// slices, and replay of the prepared log.
	layer("wal.append_ms_p50", "ms", "lower", "hi_ack_ms_p50"),
	layer("wal.append_ms_p90", "ms", "lower", "hi_ack_ms_p90"),
	layer("wal.edges_per_group", "count", "higher", "lo_ack_ms_p50"),
	layer("wal.bytes_per_edge", "B/edge", "lower", "lo_ack_ms_p50"),
	layer("wal.replay_edges_per_s", "1/s", "higher", "setup_s"),

	// internal/server: the low-rate ack p50 minus decode, unsynced append
	// and apply of one group (what is left is waiting for the group to fill
	// or the flush deadline), apply of one group into a Type i stream, the
	// /v1/connected handler's median from /metrics, and 429s.
	layer("server.batch_wait_ms", "ms", "lower", "lo_ack_ms_p50"),
	layer("server.apply_ms", "ms", "lower", "hi_ack_ms_p50"),
	layer("server.connected_ms_p50", "ms", "lower", "visible_ms_p50"),
	layer("server.backpressure", "count", "lower", "hi_ack_ms_p90"),

	// Load generator validity: the latest a frame left after its due time,
	// and the frames still unacked when a rate's schedule ended (largest
	// over all slices). Slices past the limits count as failed.
	layer("gen.late_ms_max", "ms", "lower", "hi_ack_ms_p90"),
	layer("gen.backlog_frames", "count", "lower", "hi_ack_ms_p90"),

	// Tracing overhead: split, traced solves and passes against untraced
	// ones interleaved in the same process (traced/untraced time - 1).
	layer("trace.overhead_frac.static_csr", "ratio", "lower", "csr_solve_ms_p50"),
	layer("trace.overhead_frac.static_seg", "ratio", "lower", "seg_solve_ms_p50"),
	layer("trace.overhead_frac.stream_typeii", "ratio", "lower", "typeii_updates_per_s"),
	layer("trace.overhead_frac.stream_typeiii", "ratio", "lower", "typeiii_updates_per_s"),
}
