//! The untraced pass: the end-to-end metrics, with no span recorded.
//!
//! Order of work: oracle, one warm solve and the §3.1 counts, then the
//! budget, in which timed solves, CLI runs and set-up probes take turns
//! (see [`Mix`]). Every timed output is checked against the oracle.

use crate::check;
use crate::harness::{guarded, run_cli, run_setup_probe, Ctx, Tally};
use crate::mem::PeakProbe;
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail};
use apsp_graph::oracle::apsp_dijkstra;
use std::time::Instant;

/// Every metric of this pass, with its unit, in output order.
pub const METRICS: [(&str, &str); 7] = [
    ("solve_s", "s"),
    ("solve_s.tail", "s"),
    ("cli_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("comm_words", "words"),
    ("comm_msgs", "count"),
];

/// Share of the budget spent on CLI runs.
const CLI_SHARE: f64 = 0.5;
/// Share of the budget spent on set-up probes; timed solves get the rest.
const SETUP_SHARE: f64 = 0.12;
/// Fewest timed solves: the tail needs ten samples beyond it.
const MIN_SOLVES: usize = 15;
/// Fewest CLI runs.
const MIN_CLI_RUNS: usize = 5;
/// Fewest fresh processes timed for `setup_s`.
const MIN_SETUP_PROBES: usize = 5;
/// Samples that must lie beyond the tail percentile.
const TAIL_BEYOND: usize = 10;

/// The kinds of timed work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Task {
    Solve,
    Cli,
    Setup,
}

/// Picks the next timed task: the kind furthest behind its share of the
/// time spent so far. Host load drifts over seconds, so a kind timed in
/// one stretch of the run only would report that stretch's load; taking
/// turns spreads every kind's samples over the whole run. Once the
/// budget is spent, only kinds short of their fewest samples still run.
#[derive(Default)]
struct Mix {
    spent: [f64; 3],
    done: [usize; 3],
}

impl Mix {
    /// The kinds, in the order that breaks ties.
    const TASKS: [Task; 3] = [Task::Setup, Task::Cli, Task::Solve];
    const SHARE: [f64; 3] = [SETUP_SHARE, CLI_SHARE, 1.0 - SETUP_SHARE - CLI_SHARE];
    const MIN: [usize; 3] = [MIN_SETUP_PROBES, MIN_CLI_RUNS, MIN_SOLVES];

    /// The next task, or `None` when the run is over.
    fn next(&self, budget: f64) -> Option<Task> {
        let k = if self.spent.iter().sum::<f64>() < budget {
            let behind = |k: usize| self.spent[k] / Self::SHARE[k];
            (0..3).min_by(|&a, &b| behind(a).total_cmp(&behind(b)))
        } else {
            (0..3).find(|&k| self.done[k] < Self::MIN[k])
        };
        k.map(|k| Self::TASKS[k])
    }

    /// Books `secs` of wall time to one finished `task`.
    fn book(&mut self, task: Task, secs: f64) {
        let k = Self::TASKS.iter().position(|&t| t == task).expect("a known task");
        self.spent[k] += secs;
        self.done[k] += 1;
    }
}

/// Runs the pass.
///
/// # Errors
/// When the inputs cannot be prepared or the warm solve fails, so that
/// nothing after it could be checked.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let w = ctx.workload;
    let g = ctx.write_inputs()?;
    let oracle = apsp_dijkstra(&g);
    let mut tally = Tally::default();

    let warm =
        guarded(|| w.solve(&g)).and_then(|s| check::against_oracle(&s.dist, &oracle).map(|()| s));
    tally.record("warm solve", warm.as_ref().map(|_| ()).map_err(Clone::clone));
    let warm = warm?;
    let digest = check::digest(&warm.dist);
    drop(warm.dist);

    // the §3.1 critical-path counts of this schedule; a native run
    // reports zeros, so they come from the simulator, which runs the
    // identical schedule and must give bit-identical distances
    let counts = if w.on_sim() {
        warm.report
    } else {
        let sim = guarded(|| w.solve_on_sim(&g))?;
        let same = check::digest(&sim.dist) == digest;
        tally.record(
            "simulator twin",
            same.then_some(()).ok_or("distances differ from the native solve's".into()),
        );
        sim.report
    };
    let (comm_words, comm_msgs) = (counts.critical_bandwidth(), counts.critical_latency());

    let (mut times, mut peaks, mut cli, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mix = Mix::default();
    while let Some(task) = mix.next(ctx.seconds) {
        let began = Instant::now();
        match task {
            Task::Setup => {
                let probe = run_setup_probe(ctx, digest);
                tally.record("set-up probe", probe.as_ref().map(|_| ()).map_err(Clone::clone));
                setup.extend(probe.ok());
            }
            Task::Cli => {
                let (secs, checked) = run_cli(ctx, &oracle);
                cli.push(secs);
                tally.record("apsp solve", checked);
            }
            Task::Solve => {
                let probe = PeakProbe::start()?;
                let t0 = Instant::now();
                let solved = guarded(|| w.solve(&g));
                times.push(t0.elapsed().as_secs_f64());
                peaks.push(probe.finish()?);
                let checked = solved.and_then(|s| {
                    check::against_oracle(&s.dist, &oracle)?;
                    // simulated runs carry the counts: they must repeat exactly
                    let repeated = (s.report.critical_bandwidth(), s.report.critical_latency())
                        == (comm_words, comm_msgs);
                    if w.on_sim() && !repeated {
                        return Err("critical-path counts differ from the first solve's".into());
                    }
                    Ok(())
                });
                tally.record("timed solve", checked);
            }
        }
        mix.book(task, began.elapsed().as_secs_f64());
    }

    if setup.is_empty() {
        return Err("every set-up probe failed".into());
    }
    let t = tail(&times, TAIL_BEYOND).ok_or("too few solves for a tail percentile")?;
    let metrics = vec![
        Metric::new("solve_s", median(&times), "s")
            .note(format!("median of {} solves", times.len())),
        Metric::new("solve_s.tail", t.value, "s")
            .note(format!("p{} of {} solves, {} beyond", t.percentile, t.samples, t.beyond)),
        Metric::new("cli_s", median(&cli), "s")
            .note(format!("median of {} apsp solve runs", cli.len())),
        Metric::new("setup_s", median(&setup), "s")
            .note(format!("median of {} fresh processes: read_graph to first solve", setup.len())),
        Metric::new("peak_rss_mb", median(&peaks), "MiB")
            .note("median per solve: VmHWM - VmRSS before"),
        Metric::new("comm_words", comm_words as f64, "words").note("critical_bandwidth, simulator"),
        Metric::new("comm_msgs", comm_msgs as f64, "count").note("critical_latency, simulator"),
    ];
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the schedule with fixed task costs; returns the mix at the end.
    fn simulate(budget: f64, cost: impl Fn(Task) -> f64) -> Mix {
        let mut mix = Mix::default();
        while let Some(task) = mix.next(budget) {
            mix.book(task, cost(task));
        }
        mix
    }

    #[test]
    fn every_kind_keeps_its_share_of_the_budget() {
        let mix = simulate(30.0, |t| match t {
            Task::Solve => 0.5,
            Task::Cli => 2.1,
            Task::Setup => 0.6,
        });
        let total: f64 = mix.spent.iter().sum();
        assert!((30.0..32.2).contains(&total), "ran {total} s");
        for (k, share) in Mix::SHARE.iter().enumerate() {
            assert!((mix.spent[k] / total - share).abs() < 0.1, "{k}: {:?}", mix.spent);
        }
        assert!(mix.done.iter().zip(Mix::MIN).all(|(&d, m)| d >= m), "{:?}", mix.done);
    }

    #[test]
    fn kinds_take_turns_from_the_start() {
        let mut mix = Mix::default();
        let mut order = Vec::new();
        while let Some(task) = mix.next(8.0) {
            order.push(task);
            mix.book(task, 1.0);
        }
        assert_eq!(&order[..3], &[Task::Setup, Task::Cli, Task::Solve]);
    }

    #[test]
    fn a_short_budget_still_takes_the_fewest_samples() {
        let mix = simulate(0.5, |_| 1.0);
        assert_eq!(mix.done, Mix::MIN);
    }
}
