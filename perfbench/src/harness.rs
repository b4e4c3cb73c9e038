//! What both passes share: the run's settings, its inputs, the failure
//! tally, and the two child processes (the CLI and the set-up probe).

use crate::check;
use crate::host::Host;
use crate::workloads::Workload;
use apsp_graph::{Csr, DenseDist};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Settings of one benchmark run.
pub struct Ctx {
    /// The workload under test.
    pub workload: &'static Workload,
    /// Draws the graph's edge weights.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// The release `apsp` binary.
    pub apsp: PathBuf,
    /// Scratch directory of this run (graph file, distances, spans).
    pub dir: PathBuf,
    /// The machine.
    pub host: Host,
}

impl Ctx {
    /// The budget's `share`, as a duration.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// The input file every solve of this run reads.
    pub fn graph_file(&self) -> PathBuf {
        self.dir.join("graph.el")
    }

    /// Generates the workload's graph, writes it, and returns the graph
    /// as read back from the file, so in-process and CLI solves see the
    /// same weights.
    ///
    /// # Errors
    /// When the file cannot be written or read.
    pub fn write_inputs(&self) -> Result<Csr, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let file = self.graph_file();
        apsp_graph::io::write_graph(&file, &self.workload.graph(self.seed))?;
        apsp_graph::io::read_graph(&file)
    }
}

/// Counts attempts and failures; every failure is reported on stderr.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, errored or gave wrong distances.
    pub failed: u64,
}

impl Tally {
    /// Records one attempt; `Err` counts as a failure.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }
}

/// Runs `f`, turning a panic into an error.
///
/// # Errors
/// The panic message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Runs `apsp solve --input F --distances OUT` with the workload's flags,
/// timed from spawn to exit, then parses the distances file back and
/// checks it against the oracle. Returns the wall time and the check.
pub fn run_cli(ctx: &Ctx, oracle: &DenseDist) -> (f64, Result<(), String>) {
    let out = ctx.dir.join("distances.tsv");
    let t0 = Instant::now();
    let status = Command::new(&ctx.apsp)
        .arg("solve")
        .arg("--input")
        .arg(ctx.graph_file())
        .args(ctx.workload.cli_args())
        .arg("--distances")
        .arg(&out)
        .output();
    let secs = t0.elapsed().as_secs_f64();
    let checked = match status {
        Err(e) => Err(format!("cannot run {}: {e}", ctx.apsp.display())),
        Ok(o) if !o.status.success() => Err(format!(
            "apsp solve exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(_) => std::fs::read_to_string(&out)
            .map_err(|e| format!("cannot read {}: {e}", out.display()))
            .and_then(|text| check::parse_tsv(&text, oracle.n()))
            .and_then(|dist| check::against_oracle(&dist, oracle)),
    };
    let _ = std::fs::remove_file(&out);
    (secs, checked)
}

/// The set-up probe, run in a fresh child process: reads the graph file
/// and solves once, cold. Prints the elapsed time and the distances'
/// bit digest.
///
/// # Errors
/// When the file cannot be read or the solve panics.
pub fn probe_setup(workload: &Workload, input: &Path) -> Result<String, String> {
    let t0 = Instant::now();
    let g = apsp_graph::io::read_graph(input)?;
    let solved = guarded(|| workload.solve(&g))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(format!("setup_s {secs} digest {:016x}", check::digest(&solved.dist)))
}

/// Runs [`probe_setup`] in a child process of this executable. Returns
/// its set-up time, or why it failed: a crash, or distances whose digest
/// differs from `digest` (an oracle-checked solve of the same graph).
///
/// # Errors
/// As described.
pub fn run_setup_probe(ctx: &Ctx, digest: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let o = Command::new(exe)
        .args(["--workload", ctx.workload.name, "--probe-setup"])
        .arg(ctx.graph_file())
        .output()
        .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&o.stdout);
    if !o.status.success() {
        return Err(format!(
            "set-up probe exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        ));
    }
    let fields: Vec<&str> = stdout.split_whitespace().collect();
    let (secs, got) = match fields.as_slice() {
        ["setup_s", secs, "digest", hex] => (
            secs.parse::<f64>().map_err(|e| format!("bad probe time {secs}: {e}"))?,
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad probe digest {hex}: {e}"))?,
        ),
        _ => return Err(format!("unexpected probe output {stdout:?}")),
    };
    if got != digest {
        return Err(format!(
            "cold solve digest {got:016x} differs from the checked solve's {digest:016x}"
        ));
    }
    Ok(secs)
}
