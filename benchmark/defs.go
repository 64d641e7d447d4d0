package main

import "slices"

// The tables in this file are the benchmark's contract: the workloads,
// the end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric and workload each one is predicted
// to move. BENCHMARK.json at the repository root repeats the names,
// units and directions; bench_test.go fails when the two drift apart.

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	bound float64
	// moves names what a change in this per-layer metric should move,
	// as "<end-to-end metric>@<workload>" pairs. Everywhere else the
	// prediction is no change.
	moves []string
}

// endToEnd lists what a user of the pipeline sees. Every one is reported
// for every workload. The share of failed ops is not a metric here: it is
// the failed/attempted pair of the result line, and any failure makes the
// run incorrect.
//
// The three op timings are taken from each op's fastest repetition (see
// measure), which a burst of host noise shorter than the run does not
// move; a shared host that is slow for the whole of a run still moves
// them, so they and setup_s carry the largest bound the contract allows
// (README.md, "Host noise"). The two counts repeat exactly for a seed and
// vary across seeds only through the inputs drawn, so their bounds are the
// ones that bind.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p80_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sim_rounds_per_op", unit: "rounds", better: "lower", bound: 0.15},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.10},
}

const (
	wBuildExpander = "build-expander"
	wServeExpander = "serve-expander"
	wBuildClusters = "build-clusters"
	wEngineProc    = "engine-proc"
	wTCPMsgs       = "tcp-msgs"
	wTCPRounds     = "tcp-rounds"
)

// on builds the moves list "<metric>@<workload>" for several workloads.
func on(metric string, workloads ...string) []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = metric + "@" + w
	}
	return out
}

var (
	allWorkloads = func() []string {
		names := make([]string, len(workloadDefs))
		for i, w := range workloadDefs {
			names[i] = w.name
		}
		return names
	}()
	engineTier = []string{wEngineProc, wTCPMsgs, wTCPRounds}

	movesBuildOp   = slices.Concat(on("op_p50_ms", wBuildExpander), on("ops_per_s", wBuildExpander), on("setup_s", wServeExpander))
	movesServeOp   = slices.Concat(on("op_p50_ms", wServeExpander), on("ops_per_s", wServeExpander))
	movesClusterOp = slices.Concat(on("op_p50_ms", wBuildClusters), on("ops_per_s", wBuildClusters))
	movesEngineOp  = slices.Concat(on("op_p50_ms", wEngineProc), on("ops_per_s", wEngineProc))
	movesMsgsOp    = slices.Concat(on("op_p50_ms", wTCPMsgs), on("ops_per_s", wTCPMsgs))
	movesRoundsOp  = slices.Concat(on("op_p50_ms", wTCPRounds), on("ops_per_s", wTCPRounds))
	movesAnyOp     = on("op_p50_ms", allWorkloads...)
)

// perLayer lists the traced run's metrics, one layer (package) after the
// other. A workload reports 0 for a layer it does not touch; that zero is
// the "bypassed" half of the prediction.
var perLayer = []metricDef{
	// graph: input generation. Each transport Run rebuilds its graph
	// from the spec, so the engine-tier ops pay it too.
	{name: "graph.build_ms", unit: "ms", better: "lower", moves: slices.Concat(on("setup_s", allWorkloads...), on("op_p50_ms", engineTier...))},
	{name: "graph.nodes", unit: "count", better: "lower", moves: on("setup_s", allWorkloads...)},
	{name: "graph.edges", unit: "count", better: "lower", moves: on("setup_s", allWorkloads...)},

	// spectral: the exact mixing time handed to Build as TauMix.
	{name: "spectral.mixing_ms", unit: "ms", better: "lower", moves: on("setup_s", wBuildExpander, wServeExpander)},
	{name: "spectral.tau", unit: "steps", better: "lower", moves: on("sim_rounds_per_op", wBuildExpander)},

	// randomwalk: Build's two walk stages replayed through the public
	// Run on the built hierarchy's public fields.
	{name: "randomwalk.g0_run_ms", unit: "ms", better: "lower", moves: movesBuildOp},
	{name: "randomwalk.level_run_ms", unit: "ms", better: "lower", moves: movesBuildOp},
	{name: "randomwalk.ns_per_step", unit: "ns", better: "lower", moves: movesBuildOp},
	{name: "randomwalk.walk_steps", unit: "count", better: "lower", moves: movesBuildOp},
	{name: "randomwalk.rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wBuildExpander)},

	// embed: hierarchy construction, single expander and per cluster.
	{name: "embed.build_ms_p50", unit: "ms", better: "lower", moves: movesBuildOp},
	{name: "embed.build_allocs", unit: "count", better: "lower", moves: slices.Concat(movesBuildOp, on("alloc_mb_per_op", wBuildExpander))},
	{name: "embed.build_mb", unit: "MB", better: "lower", moves: on("alloc_mb_per_op", wBuildExpander)},
	{name: "embed.construction_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wBuildExpander)},
	{name: "embed.virtual_nodes", unit: "count", better: "lower", moves: movesBuildOp},
	{name: "embed.levels", unit: "count", better: "lower", moves: movesBuildOp},
	{name: "embed.g0_edges", unit: "count", better: "lower", moves: movesBuildOp},
	{name: "embed.walk_share", unit: "ratio", better: "lower", moves: movesBuildOp},
	{name: "embed.partitioned_ms_p50", unit: "ms", better: "lower", moves: movesClusterOp},
	{name: "embed.partitioned_allocs", unit: "count", better: "lower", moves: slices.Concat(movesClusterOp, on("alloc_mb_per_op", wBuildClusters))},
	{name: "embed.partitioned_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wBuildClusters)},
	{name: "embed.clusters", unit: "count", better: "lower", moves: movesClusterOp},

	// pathsched: shared by Build (emulation measurement) and by routing.
	{name: "pathsched.schedule_ms", unit: "ms", better: "lower", moves: slices.Concat(movesBuildOp, movesServeOp)},
	{name: "pathsched.ns_per_hop", unit: "ns", better: "lower", moves: slices.Concat(movesBuildOp, movesServeOp)},
	{name: "pathsched.makespan", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wBuildExpander, wServeExpander)},

	// route: sparse (permutation) and congested (degree demand) routing.
	{name: "route.perm_ms_p50", unit: "ms", better: "lower", moves: movesServeOp},
	{name: "route.perm_allocs", unit: "count", better: "lower", moves: movesServeOp},
	{name: "route.perm_base_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wServeExpander)},
	{name: "route.perm_prep_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wServeExpander)},
	{name: "route.perm_us_per_packet", unit: "us", better: "lower", moves: movesServeOp},
	{name: "route.degree_ms_p50", unit: "ms", better: "lower", moves: movesServeOp},
	{name: "route.degree_allocs", unit: "count", better: "lower", moves: movesServeOp},
	{name: "route.degree_base_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wServeExpander)},
	{name: "route.degree_us_per_packet", unit: "us", better: "lower", moves: movesServeOp},
	{name: "route.max_portal_load", unit: "count", better: "lower", moves: on("sim_rounds_per_op", wServeExpander)},
	{name: "route.undelivered", unit: "count", better: "lower", moves: on("op_p50_ms", wServeExpander, wBuildClusters)},
	{name: "route.partitioned_ms_p50", unit: "ms", better: "lower", moves: movesClusterOp},
	{name: "route.partitioned_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wBuildClusters)},
	{name: "route.partitioned_waves", unit: "count", better: "lower", moves: on("sim_rounds_per_op", wBuildClusters)},

	// mst: Borůvka over the hierarchy, and stitched across clusters.
	{name: "mst.run_ms_p50", unit: "ms", better: "lower", moves: movesServeOp},
	{name: "mst.run_allocs", unit: "count", better: "lower", moves: movesServeOp},
	{name: "mst.algorithm_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wServeExpander)},
	{name: "mst.iterations", unit: "count", better: "lower", moves: on("sim_rounds_per_op", wServeExpander)},
	{name: "mst.mismatches", unit: "count", better: "lower", moves: on("op_p50_ms", wServeExpander, wBuildClusters)},
	{name: "mst.partitioned_ms_p50", unit: "ms", better: "lower", moves: movesClusterOp},
	{name: "mst.partitioned_rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", wBuildClusters)},

	// decomp: host-side, sweep-charged preprocessing.
	{name: "decomp.decompose_ms_p50", unit: "ms", better: "lower", moves: movesClusterOp},
	{name: "decomp.clusters", unit: "count", better: "lower", moves: movesClusterOp},
	{name: "decomp.cross_edges", unit: "count", better: "lower", moves: on("sim_rounds_per_op", wBuildClusters)},
	{name: "decomp.charged_passes", unit: "passes", better: "lower", moves: movesClusterOp},

	// congest: the in-process engines, probed below the transport seam.
	{name: "congest.new_network_ms", unit: "ms", better: "lower", moves: movesEngineOp},
	{name: "congest.walks_run_ms_w1", unit: "ms", better: "lower", moves: on("setup_s", wEngineProc, wTCPMsgs)},
	{name: "congest.walks_run_ms_w2", unit: "ms", better: "lower", moves: movesEngineOp},
	{name: "congest.parallel_speedup", unit: "ratio", better: "higher", moves: slices.Concat(movesEngineOp, on("op_p80_ms", wEngineProc))},
	{name: "congest.walks_ns_per_msg", unit: "ns", better: "lower", moves: slices.Concat(movesEngineOp, movesMsgsOp)},
	{name: "congest.ghs_run_ms", unit: "ms", better: "lower", moves: movesEngineOp},
	{name: "congest.ghs_us_per_round", unit: "us", better: "lower", moves: movesEngineOp},
	{name: "congest.rounds", unit: "rounds", better: "lower", moves: on("sim_rounds_per_op", engineTier...)},
	{name: "congest.msgs", unit: "count", better: "lower", moves: slices.Concat(movesEngineOp, movesMsgsOp)},
	{name: "congest.steady_allocs_per_round", unit: "count", better: "lower", moves: movesEngineOp},

	// transport: both backends through the one Run entry point.
	{name: "transport.proc_walks_ms_p50", unit: "ms", better: "lower", moves: movesEngineOp},
	{name: "transport.proc_ghs_ms_p50", unit: "ms", better: "lower", moves: movesEngineOp},
	{name: "transport.tcp_walks_ms_p50", unit: "ms", better: "lower", moves: movesMsgsOp},
	{name: "transport.tcp_ghs_ms_p50", unit: "ms", better: "lower", moves: movesRoundsOp},
	{name: "transport.tcp_ns_per_msg", unit: "ns", better: "lower", moves: movesMsgsOp},
	{name: "transport.tcp_us_per_round", unit: "us", better: "lower", moves: movesRoundsOp},
	{name: "transport.tcp_over_proc_walks", unit: "ratio", better: "lower", moves: movesMsgsOp},
	{name: "transport.tcp_over_proc_ghs", unit: "ratio", better: "lower", moves: movesRoundsOp},
	{name: "transport.tcp_fixed_ms", unit: "ms", better: "lower", moves: movesRoundsOp},
	{name: "transport.wire_bytes_per_msg", unit: "bytes", better: "lower", moves: movesMsgsOp},
	{name: "transport.wire_bytes_per_round", unit: "bytes", better: "lower", moves: movesRoundsOp},
	{name: "transport.frames_per_round", unit: "count", better: "lower", moves: movesRoundsOp},
	{name: "transport.flush_p50_us", unit: "us", better: "lower", moves: movesRoundsOp},
	{name: "transport.round_skew_p99_us", unit: "us", better: "lower", moves: on("op_p80_ms", wTCPMsgs, wTCPRounds)},
	{name: "transport.payload_codec_ns", unit: "ns", better: "lower", moves: movesMsgsOp},
	{name: "transport.failed_runs", unit: "count", better: "lower", moves: on("op_p50_ms", engineTier...)},

	// faults: the fate-table handshake, guarded without its own workload.
	// It shares the wire code with tcp-msgs, which is where a slower
	// handshake would show.
	{name: "faults.tcp_walks_faults_ms_p50", unit: "ms", better: "lower", moves: movesMsgsOp},
	{name: "faults.tcp_overhead_ratio", unit: "ratio", better: "lower", moves: movesMsgsOp},
	{name: "faults.dropped", unit: "count", better: "lower", moves: movesMsgsOp},

	// harness: the benchmark's own cost and the trace's completeness.
	{name: "harness.timed_ops", unit: "count", better: "higher", moves: on("ops_per_s", allWorkloads...)},
	{name: "harness.timed_window_s", unit: "s", better: "lower", moves: on("ops_per_s", allWorkloads...)},
	{name: "harness.cpu_ms_per_op", unit: "ms", better: "lower", moves: movesAnyOp},
	{name: "harness.allocs_per_op", unit: "count", better: "lower", moves: movesAnyOp},
	{name: "harness.alloc_mb_per_op", unit: "MB", better: "lower", moves: on("alloc_mb_per_op", allWorkloads...)},
	{name: "harness.gc_cycles", unit: "count", better: "lower", moves: movesAnyOp},
	{name: "harness.gc_pause_ms", unit: "ms", better: "lower", moves: on("op_p80_ms", allWorkloads...)},
	{name: "harness.peak_rss_mb", unit: "MB", better: "lower", moves: on("alloc_mb_per_op", allWorkloads...)},
	{name: "harness.oracle_ms_p50", unit: "ms", better: "lower", moves: movesAnyOp},
	{name: "harness.span_coverage", unit: "ratio", better: "higher", moves: movesAnyOp},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower", moves: movesAnyOp},
}
