//! The traced pass: the per-layer metrics.
//!
//! Spans are recorded only here, around calls into each crate's public
//! functions. A traced solve is `SparseApsp::run`'s pipeline called step by step
//! (`nested_dissection` + `validate`, `Csr::permuted`, the backend's
//! solve, `SupernodalLayout::unpermute`), so its span tree splits the
//! solve by layer. Every count must repeat exactly across passes.

use crate::check;
use crate::harness::{guarded, run_cli, Ctx, Tally};
use crate::report::{Metric, Outcome};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{Solver, HEIGHT, RANKS};
use apsp_bench::workloads::dense_minplus;
use apsp_core::djohnson::{distributed_johnson, distributed_johnson_native};
use apsp_core::sparse2d::{sparse2d_native, sparse2d_with, Sparse2dOptions, Sparse2dResult};
use apsp_core::superfw::superfw;
use apsp_core::{Backend, SupernodalLayout};
use apsp_graph::oracle::apsp_dijkstra;
use apsp_graph::{Csr, DenseDist};
use apsp_minplus::{fw_in_place, gemm, MinPlusMatrix};
use apsp_partition::{nested_dissection, NdOptions, NdOrdering};
use apsp_simnet::RunReport;
use apsp_transport::NativeMachine;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every metric of this pass, with its unit, in output order.
pub const METRICS: [(&str, &str); 32] = [
    ("graph.load_s", "s"),
    ("graph.permute_s", "s"),
    ("graph.dijkstra_s", "s"),
    ("partition.order_s", "s"),
    ("partition.top_separator", "count"),
    ("partition.max_separator", "count"),
    ("layout.extract_s", "s"),
    ("layout.unpermute_s", "s"),
    ("solver.run_s", "s"),
    ("solver.relax_per_s_per_core", "1/s"),
    ("solver.speedup_vs_superfw", "ratio"),
    ("solve.self_s", "s"),
    ("minplus.gemm_ops", "count"),
    ("minplus.fw_ops", "count"),
    ("minplus.inf_row_skips", "count"),
    ("minplus.bytes_touched", "B"),
    ("minplus.gemm_calls", "count"),
    ("minplus.fw_calls", "count"),
    ("minplus.superfw_s", "s"),
    ("minplus.superfw_relax_per_s", "1/s"),
    ("minplus.gemm_relax_per_s", "1/s"),
    ("minplus.fw_relax_per_s", "1/s"),
    ("transport.spawn_s", "s"),
    ("transport.messages", "count"),
    ("transport.words", "words"),
    ("simnet.crit_latency", "count"),
    ("simnet.crit_bandwidth", "words"),
    ("simnet.crit_compute", "count"),
    ("simnet.max_peak_words", "words"),
    ("simnet.clock_overhead", "ratio"),
    ("cli.other_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Share of the budget spent on traced passes (at least [`MIN_PASSES`]).
const PASS_SHARE: f64 = 0.65;
/// Fewest traced passes: counts are compared across them.
const MIN_PASSES: usize = 3;
/// Fewest CLI runs.
const MIN_CLI_RUNS: usize = 2;
/// Empty-program machine launches timed for `transport.spawn_s`.
const SPAWN_REPS: usize = 20;
/// Least time spent in each kernel probe, seconds.
const KERNEL_PROBE_S: f64 = 0.15;

/// Kernel counters over one solve, by metric name.
type Counts = BTreeMap<&'static str, u64>;

fn kernel_counts() -> [u64; 6] {
    let c = apsp_minplus::perf::counters();
    [
        c.gemm_ops.get(),
        c.fw_ops.get(),
        c.inf_row_skips.get(),
        c.bytes_touched.get(),
        c.gemm_calls.get(),
        c.fw_calls.get(),
    ]
}

const KERNEL_NAMES: [&str; 6] = [
    "minplus.gemm_ops",
    "minplus.fw_ops",
    "minplus.inf_row_skips",
    "minplus.bytes_touched",
    "minplus.gemm_calls",
    "minplus.fw_calls",
];

/// Calls `f` inside span `name`, recording the kernel counters' growth
/// over the call into `counts`.
fn with_kernel_counts<T>(
    t: &mut Tracer,
    name: &'static str,
    counts: &mut Counts,
    f: impl FnOnce() -> T,
) -> T {
    let before = kernel_counts();
    let out = t.span(name, |_| f());
    let after = kernel_counts();
    for ((name, b), a) in KERNEL_NAMES.iter().zip(before).zip(after) {
        counts.insert(name, a - b);
    }
    out
}

/// The ordering and the supernodal layout of the prepared inputs.
struct Prepared {
    nd: NdOrdering,
    layout: SupernodalLayout,
    g_perm: Csr,
}

/// `nested_dissection` + `validate`, then `Csr::permuted`, each in its span.
fn prepare(t: &mut Tracer, g: &Csr) -> Result<Prepared, String> {
    let nd = t.span("partition.order", |_| {
        let nd = nested_dissection(g, HEIGHT, &NdOptions::default());
        nd.validate(g).map(|()| nd)
    })?;
    let layout = SupernodalLayout::from_ordering(&nd);
    let g_perm = t.span("graph.permute", |_| g.permuted(&nd.perm));
    Ok(Prepared { nd, layout, g_perm })
}

fn sparse2d_on(backend: Backend, p: &Prepared) -> Sparse2dResult {
    let opts = Sparse2dOptions::default();
    match backend {
        Backend::Native => sparse2d_native(&p.layout, &p.g_perm, &opts),
        Backend::Sim => sparse2d_with(&p.layout, &p.g_perm, &opts),
    }
}

fn other(backend: Backend) -> Backend {
    match backend {
        Backend::Native => Backend::Sim,
        Backend::Sim => Backend::Native,
    }
}

/// What one traced pass leaves behind besides its spans.
struct Pass {
    /// Every count of the pass; they must repeat exactly across passes.
    counts: Counts,
    /// The untraced solve run right after the traced one, seconds.
    untraced_s: f64,
}

/// One traced pass: load, solve (split by layer), the same solve untraced
/// as the overhead's base, the other backend's twin run, and
/// single-thread SuperFW on the same blocks.
fn pass(t: &mut Tracer, ctx: &Ctx, oracle: &DenseDist, tally: &mut Tally) -> Result<Pass, String> {
    let g = t.span("graph.load", |_| apsp_graph::io::read_graph(ctx.graph_file()))?;
    let mut counts = Counts::new();
    let (prepared, sim_report) = match ctx.workload.solver {
        Solver::Sparse2d(backend) => {
            let (prepared, run, dist) = t.span("solve", |t| {
                let prepared = prepare(t, &g)?;
                let run = with_kernel_counts(t, "solver.run", &mut counts, || {
                    guarded(|| sparse2d_on(backend, &prepared))
                })?;
                let dist = t.span("layout.unpermute", |_| {
                    SupernodalLayout::unpermute(&run.dist_eliminated, &prepared.nd.perm)
                });
                Ok::<_, String>((prepared, run, dist))
            })?;
            tally.record("traced solve", check::against_oracle(&dist, oracle));
            let twin =
                t.span("solver.twin", |_| guarded(|| sparse2d_on(other(backend), &prepared)))?;
            let same = check::bit_equal(&run.dist_eliminated, &twin.dist_eliminated);
            tally.record(
                "native/sim bit equality",
                same.then_some(()).ok_or("native and sim distances differ".into()),
            );
            let sim = if backend == Backend::Sim { run.report } else { twin.report };
            (prepared, sim)
        }
        Solver::DJohnson => {
            let run = t.span("solve", |t| {
                with_kernel_counts(t, "solver.run", &mut counts, || {
                    guarded(|| distributed_johnson_native(&g, RANKS))
                })
            })?;
            tally.record("traced solve", check::against_oracle(&run.dist, oracle));
            let twin = t.span("solver.twin", |_| guarded(|| distributed_johnson(&g, RANKS)))?;
            let same = check::bit_equal(&run.dist, &twin.dist);
            tally.record(
                "native/sim bit equality",
                same.then_some(()).ok_or("native and sim distances differ".into()),
            );
            // djohnson needs no ordering; SuperFW below does
            let prepared = t.span("superfw.prep", |t| prepare(t, &g))?;
            (prepared, twin.report)
        }
    };
    add_sim_counts(&mut counts, &sim_report);

    let t0 = Instant::now();
    let solved = guarded(|| ctx.workload.solve(&g));
    let untraced_s = t0.elapsed().as_secs_f64();
    tally.record("untraced solve", solved.and_then(|s| check::against_oracle(&s.dist, oracle)));

    let mut blocks =
        t.span("layout.extract", |_| prepared.layout.extract_all_blocks(&prepared.g_perm));
    let stats = t.span("minplus.superfw", |_| superfw(&prepared.layout, &mut blocks));
    let dist = t.span("verify.superfw", |t| {
        let eliminated = prepared.layout.assemble_dense(&blocks);
        t.span("layout.unpermute", |_| SupernodalLayout::unpermute(&eliminated, &prepared.nd.perm))
    });
    tally.record("superfw", check::against_oracle(&dist, oracle));

    let nd = &prepared.nd;
    counts.insert("minplus.superfw_ops", stats.ops);
    counts.insert("partition.top_separator", nd.top_separator() as u64);
    counts.insert("partition.max_separator", nd.max_separator() as u64);
    counts.insert("partition.leaf_max", nd.level_sizes(1).into_iter().max().unwrap_or(1) as u64);
    Ok(Pass { counts, untraced_s })
}

fn add_sim_counts(counts: &mut Counts, r: &RunReport) {
    counts.insert("transport.messages", r.total_messages());
    counts.insert("transport.words", r.total_words());
    counts.insert("simnet.crit_latency", r.critical_latency());
    counts.insert("simnet.crit_bandwidth", r.critical_bandwidth());
    counts.insert("simnet.crit_compute", r.critical_compute());
    counts.insert("simnet.max_peak_words", r.max_peak_words());
}

/// Runs `op` on a fresh operand from `setup`, in spans called `name`,
/// until [`KERNEL_PROBE_S`] is spent; returns relaxations per second.
fn kernel_rate<S>(
    t: &mut Tracer,
    name: &'static str,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S) -> u64,
) -> f64 {
    let (mut ops, mut secs) = (0, 0.0);
    while secs < KERNEL_PROBE_S {
        let mut operand = setup();
        let t0 = Instant::now();
        ops += t.span(name, |_| op(&mut operand));
        secs += t0.elapsed().as_secs_f64();
    }
    ops as f64 / secs
}

/// Runs the pass.
///
/// # Errors
/// When the inputs cannot be prepared or a pass cannot complete.
pub fn run(ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    let w = ctx.workload;
    let g = ctx.write_inputs()?;
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let oracle = t.span("graph.dijkstra", |_| apsp_dijkstra(&g));
    // the first solve of a process is cold; keep it out of the passes
    let warm = guarded(|| w.solve(&g));
    tally.record("warm solve", warm.and_then(|s| check::against_oracle(&s.dist, &oracle)));

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < ctx.budget(PASS_SHARE) {
        let p = t.span("pass", |t| pass(t, ctx, &oracle, &mut tally));
        passes.push(p?);
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        let diff: Vec<String> = p
            .counts
            .iter()
            .filter(|(k, v)| passes[0].counts.get(*k) != Some(*v))
            .map(|(k, v)| format!("{k} = {v} (pass 0: {:?})", passes[0].counts.get(k)))
            .collect();
        tally.record(
            &format!("counts of pass {i}"),
            diff.is_empty().then_some(()).ok_or(diff.join(", ")),
        );
    }

    for _ in 0..SPAWN_REPS {
        t.span("transport.spawn", |_| NativeMachine::run(RANKS, |_| ()));
    }
    let count = |name: &str| passes[0].counts[name];
    let (top_separator, leaf_max) =
        (count("partition.top_separator") as usize, count("partition.leaf_max") as usize);
    let gemm_rate = {
        let s = top_separator.max(1);
        let (a, b) = (dense_minplus(s, ctx.seed), dense_minplus(s, ctx.seed + 1));
        kernel_rate(
            &mut t,
            "minplus.gemm_probe",
            || MinPlusMatrix::empty(s, s),
            |c| gemm(c, &a, &b),
        )
    };
    let fw_rate = {
        let a = dense_minplus(leaf_max.max(1), ctx.seed + 2);
        kernel_rate(&mut t, "minplus.fw_probe", || a.clone(), fw_in_place)
    };

    let mut cli = Vec::new();
    while cli.len() < MIN_CLI_RUNS || start.elapsed() < ctx.budget(1.0) {
        let (secs, checked) = t.span("cli", |_| run_cli(ctx, &oracle));
        cli.push(secs);
        tally.record("apsp solve", checked);
    }

    let self_s = |name: &str| median(&t.self_times(name));
    let run_s = self_s("solver.run");
    let twin_s = self_s("solver.twin");
    let baseline: Vec<f64> = passes.iter().map(|p| p.untraced_s).collect();
    let solve_s = median(&baseline);
    let load_s = self_s("graph.load");
    let superfw_s = self_s("minplus.superfw");
    let relax = (count("minplus.gemm_ops") + count("minplus.fw_ops")) as f64;
    let superfw_ops = count("minplus.superfw_ops");
    let cores = RANKS.min(ctx.host.nproc) as f64;
    let (sim_s, native_s) = if w.on_sim() { (run_s, twin_s) } else { (twin_s, run_s) };
    let n_passes = passes.len();

    let mut metrics = vec![
        Metric::new("graph.load_s", load_s, "s").note("io::read_graph"),
        Metric::new("graph.permute_s", self_s("graph.permute"), "s").note("Csr::permuted"),
        Metric::new("graph.dijkstra_s", t.durations("graph.dijkstra")[0], "s")
            .note("oracle::apsp_dijkstra, one thread"),
        Metric::new("partition.order_s", self_s("partition.order"), "s")
            .note("nested_dissection + validate"),
        Metric::new("partition.top_separator", count("partition.top_separator") as f64, "count"),
        Metric::new("partition.max_separator", count("partition.max_separator") as f64, "count"),
        Metric::new("layout.extract_s", self_s("layout.extract"), "s").note("extract_all_blocks"),
        Metric::new("layout.unpermute_s", self_s("layout.unpermute"), "s")
            .note("SupernodalLayout::unpermute"),
        Metric::new("solver.run_s", run_s, "s").note(format!("{:?} on prepared inputs", w.solver)),
        Metric::new("solver.relax_per_s_per_core", relax / run_s / cores, "1/s").note(format!(
            "base: minplus.gemm_ops + fw_ops, solver.run_s, min(p={RANKS}, nproc) = {cores}"
        )),
        Metric::new("solver.speedup_vs_superfw", superfw_s / run_s, "ratio")
            .note("base: minplus.superfw_s / solver.run_s"),
        Metric::new("solve.self_s", self_s("solve"), "s")
            .note("traced solve minus its child spans"),
    ];
    for name in KERNEL_NAMES {
        let unit = if name == "minplus.bytes_touched" { "B" } else { "count" };
        let note = if unit == "B" {
            "computed, not measured; delta over solver.run"
        } else {
            "delta over solver.run"
        };
        metrics.push(Metric::new(name, count(name) as f64, unit).note(note));
    }
    metrics.extend([
        Metric::new("minplus.superfw_s", superfw_s, "s")
            .note("superfw, one thread, the workload's blocks"),
        Metric::new("minplus.superfw_relax_per_s", superfw_ops as f64 / superfw_s, "1/s")
            .note(format!("base: {superfw_ops} superfw relaxations, minplus.superfw_s")),
        Metric::new("minplus.gemm_relax_per_s", gemm_rate, "1/s")
            .note(format!("gemm, dense {top_separator}x{top_separator} operands (top separator)")),
        Metric::new("minplus.fw_relax_per_s", fw_rate, "1/s")
            .note(format!("fw_in_place, dense {leaf_max}x{leaf_max} (largest leaf)")),
        Metric::new("transport.spawn_s", self_s("transport.spawn"), "s")
            .note(format!("NativeMachine::run({RANKS}, empty program), median of {SPAWN_REPS}")),
        Metric::new("transport.messages", count("transport.messages") as f64, "count")
            .note("total, simulator run of the schedule"),
        Metric::new("transport.words", count("transport.words") as f64, "words")
            .note("total, simulator run of the schedule"),
        Metric::new("simnet.crit_latency", count("simnet.crit_latency") as f64, "count"),
        Metric::new("simnet.crit_bandwidth", count("simnet.crit_bandwidth") as f64, "words"),
        Metric::new("simnet.crit_compute", count("simnet.crit_compute") as f64, "count"),
        Metric::new("simnet.max_peak_words", count("simnet.max_peak_words") as f64, "words"),
        Metric::new("simnet.clock_overhead", sim_s / native_s, "ratio")
            .note("base: sim solver time / native solver time, same inputs"),
        Metric::new("cli.other_s", median(&cli) - load_s - solve_s, "s")
            .note(format!("derived: cli_s (median of {}) - graph.load_s - solve_s", cli.len())),
        Metric::new("trace.overhead_ratio", median(&t.durations("solve")) / solve_s, "ratio").note(
            format!(
                "base: untraced solve_s here; medians over {n_passes} passes, each running both"
            ),
        ),
    ]);
    Ok((Outcome { attempted: tally.attempted, failed: tally.failed, metrics }, t))
}
