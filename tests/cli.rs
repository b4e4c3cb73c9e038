//! Integration tests for the `apsp` command-line binary.

use std::process::Command;

fn apsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apsp"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sparse-apsp-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn generate_then_solve_then_path() {
    let graph = tmp("mesh.el");
    let out = apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6"])
        .args(["--weights", "integer", "--seed", "3", "--out"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("36 vertices"));

    let dist = tmp("dist.tsv");
    let report = tmp("report.json");
    let out = apsp()
        .args(["solve", "--height", "2", "--verify", "--input"])
        .arg(&graph)
        .arg("--distances")
        .arg(&dist)
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("verified against Dijkstra: OK"));

    // distances file: 36 lines of 36 tab-separated values, diagonal zero
    let text = std::fs::read_to_string(&dist).unwrap();
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 36);
    assert_eq!(rows[0].split('\t').count(), 36);
    assert_eq!(rows[0].split('\t').next(), Some("0"));

    // report JSON mentions the fields we promise
    let json = std::fs::read_to_string(&report).unwrap();
    for key in
        ["critical_latency", "critical_bandwidth", "total_words", "max_peak_words", "level_costs"]
    {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    // path query between opposite corners
    let out = apsp()
        .args(["path", "--height", "2", "--from", "0", "--to", "35", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("distance:"));
    assert!(stdout.starts_with("distance:"));
    assert!(stdout.contains("0 ->"));
    assert!(stdout.trim_end().ends_with("-> 35"));
}

#[test]
fn all_algorithms_agree_via_cli() {
    let graph = tmp("gnp.el");
    assert!(apsp()
        .args(["generate", "--kind", "gnp", "--n", "30", "--p", "0.1", "--seed", "1", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    for algo in ["sparse2d", "fw2d", "dcapsp", "djohnson", "superfw"] {
        let out = apsp()
            .args(["solve", "--algorithm", algo, "--height", "2", "--verify", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn matrix_market_roundtrip_via_cli() {
    let graph = tmp("mesh.mtx");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "12", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let text = std::fs::read_to_string(&graph).unwrap();
    assert!(text.starts_with("%%MatrixMarket"));
    let out = apsp()
        .args(["solve", "--height", "2", "--verify", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn directed_solve_via_cli() {
    // hand-written one-way DIMACS triangle
    let graph = tmp("oneway.gr");
    std::fs::write(&graph, "c one-way ring\np sp 3 3\na 1 2 1\na 2 3 2\na 3 1 4\n").unwrap();
    let out = apsp()
        .args(["solve", "--directed", "--height", "2", "--verify", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("directed Dijkstra: OK"));

    // distances must be asymmetric
    let dist = tmp("oneway.tsv");
    assert!(apsp()
        .args(["solve", "--directed", "--height", "2", "--input"])
        .arg(&graph)
        .arg("--distances")
        .arg(&dist)
        .status()
        .unwrap()
        .success());
    let text = std::fs::read_to_string(&dist).unwrap();
    let rows: Vec<Vec<f64>> =
        text.lines().map(|l| l.split('\t').map(|x| x.parse().unwrap()).collect()).collect();
    assert_eq!(rows[0][1], 1.0);
    assert_eq!(rows[1][0], 6.0, "around the ring the long way");
}

#[test]
fn info_reports_statistics() {
    let graph = tmp("info.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "7", "--cols", "7", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let out = apsp().args(["info", "--height", "2", "--input"]).arg(&graph).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices          49"));
    assert!(text.contains("diameter          >= 12"));
    assert!(text.contains("top separator"));
}

#[test]
fn faulty_solve_recovers_and_reports() {
    let graph = tmp("faulted.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // a recoverable plan: the answer still verifies against Dijkstra, and
    // the recovery history lands on stderr
    let out = apsp()
        .args(["solve", "--height", "2", "--verify"])
        .args(["--faults", "drop=0.05,dup=0.02", "--fault-seed", "7", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    assert!(stderr.contains("faults: injected"), "{stderr}");
    assert!(stderr.contains("unrecoverable 0"), "{stderr}");

    // same plan + same seed → bit-identical digest line
    let again = apsp()
        .args(["solve", "--height", "2"])
        .args(["--faults", "drop=0.05,dup=0.02", "--fault-seed", "7", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(again.status.success());
    let digest = |s: &str| s.lines().find(|l| l.starts_with("faults:")).map(String::from);
    assert_eq!(
        digest(&stderr),
        digest(&String::from_utf8_lossy(&again.stderr)),
        "fault replay must be deterministic"
    );
}

#[test]
fn fault_spec_errors_fail_cleanly() {
    let graph = tmp("faultspec.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // malformed spec dies before solving
    let out =
        apsp().args(["solve", "--faults", "drop=1.5", "--input"]).arg(&graph).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --faults spec"));

    // superfw never touches the simulated machine, so faults are rejected
    let out = apsp()
        .args(["solve", "--algorithm", "superfw", "--faults", "drop=0.1", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated machine"));
}

#[test]
fn dead_link_solve_exits_loudly() {
    let graph = tmp("deadlink.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    // link 0→2 is on the 9-rank sparse2d schedule: killing it must abort
    // the solve with the culprit link, not return wrong distances
    let out = apsp()
        .args(["solve", "--height", "2", "--faults", "kill=0>2", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable fault"), "{stderr}");
    assert!(stderr.contains("0 → 2"), "{stderr}");
}

#[test]
fn recovering_solve_survives_a_dead_rank() {
    let graph = tmp("recover.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // rank 4 dies permanently after its first phase boundary; under the
    // default checkpoint/restart policy the solve still completes, still
    // verifies against Dijkstra, and reports its recovery trajectory
    let run = || {
        apsp()
            .args(["solve", "--height", "2", "--verify"])
            .args(["--faults", "kill=4@1", "--recover", "default", "--input"])
            .arg(&graph)
            .output()
            .unwrap()
    };
    let out = run();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("recovery:"))
        .unwrap_or_else(|| panic!("no recovery digest on stderr:\n{stderr}"))
        .to_string();
    assert!(!line.starts_with("recovery: 0 restarts"), "the kill must force a restart: {line}");
    assert!(line.contains("spares"), "{line}");

    // same plan + same policy → bit-identical recovery digest
    let again = run();
    let again_err = String::from_utf8_lossy(&again.stderr).to_string();
    assert_eq!(
        Some(line.as_str()),
        again_err.lines().find(|l| l.starts_with("recovery:")),
        "recovery replay must be deterministic"
    );

    // with no spare and one restart, the permanent kill exhausts the
    // budget: a typed unrecoverable error, not a panic or a hang
    let out = apsp()
        .args(["solve", "--height", "2"])
        .args(["--faults", "kill=4", "--recover", "restarts=1,spares=0", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable after"), "{stderr}");

    // a malformed policy fails usage-style, before any solve starts
    let out =
        apsp().args(["solve", "--recover", "warp=9", "--input"]).arg(&graph).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --recover spec"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = apsp().args(["solve"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out = apsp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = apsp().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// Minimal recursive-descent JSON validator (the workspace has no serde):
/// consumes one JSON value and returns the rest of the input, or the byte
/// offset of the first syntax error.
mod json {
    pub fn validate(s: &str) -> Result<(), usize> {
        let b = s.as_bytes();
        let i = value(b, skip_ws(b, 0))?;
        let i = skip_ws(b, i);
        if i == b.len() {
            Ok(())
        } else {
            Err(i)
        }
    }

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }

    fn value(b: &[u8], i: usize) -> Result<usize, usize> {
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return Err(i);
                    }
                    i = value(b, skip_ws(b, i + 1))?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        _ => return Err(i),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = value(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        _ => return Err(i),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => Err(i),
        }
    }

    fn literal(b: &[u8], i: usize, lit: &[u8]) -> Result<usize, usize> {
        if b[i..].starts_with(lit) {
            Ok(i + lit.len())
        } else {
            Err(i)
        }
    }

    fn string(b: &[u8], mut i: usize) -> Result<usize, usize> {
        if b.get(i) != Some(&b'"') {
            return Err(i);
        }
        i += 1;
        while let Some(&c) = b.get(i) {
            match c {
                b'"' => return Ok(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err(i)
    }

    fn number(b: &[u8], mut i: usize) -> Result<usize, usize> {
        let start = i;
        while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            i += 1;
        }
        if i > start {
            Ok(i)
        } else {
            Err(i)
        }
    }
}

/// Pulls a field's raw value out of a single-line hand-serialized event.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn trace_export_via_cli() {
    let graph = tmp("traced.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let dir = tmp("trace-out");
    let out = apsp()
        .args(["solve", "--algorithm", "sparse2d", "--height", "2", "--verify"])
        .args(["--profile", "--input"])
        .arg(&graph)
        .arg("--trace")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("trace written to"), "{stderr}");
    assert!(stderr.contains("attribution: exact"), "{stderr}");

    // the Chrome-trace JSON parses
    let text = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    json::validate(&text).unwrap_or_else(|at| {
        panic!("trace.json: syntax error at byte {at}: …{}…", &text[at..(at + 40).min(text.len())])
    });

    // one complete ("X") event per instrumented phase per rank: p = 9
    // ranks (h = 2), phases level#1/level#2, each with nested r1/r2/r3 and
    // r4 on the non-final level only
    let mut count = std::collections::HashMap::new();
    for line in text.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
        let name = field(line, "name").unwrap().to_string();
        let tid: usize = field(line, "tid").unwrap().parse().unwrap();
        let tag: u64 = field(line, "tag").unwrap().parse().unwrap();
        *count.entry((name, tid, tag)).or_insert(0u32) += 1;
    }
    for rank in 0..9 {
        for level in 1..=2u64 {
            assert_eq!(
                count.get(&("level".into(), rank, level)),
                Some(&1),
                "level#{level} rank {rank}"
            );
            for unit in ["r1", "r2", "r3"] {
                assert_eq!(
                    count.get(&(unit.into(), rank, level)),
                    Some(&1),
                    "{unit}#{level} rank {rank}"
                );
            }
        }
        assert_eq!(count.get(&("r4".into(), rank, 1)), Some(&1), "r4 rank {rank}");
        assert_eq!(count.get(&("r4".into(), rank, 2)), None, "no r4 on the last level");
    }

    // the JSONL event stream parses line by line
    let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(!events.is_empty());
    for (no, line) in events.lines().enumerate() {
        json::validate(line).unwrap_or_else(|at| panic!("events.jsonl:{no}: bad JSON at {at}"));
    }
}

#[test]
fn protocol_verify_clean_for_every_algorithm() {
    let graph = tmp("verified.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "4", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    for algo in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        let out = apsp()
            .args(["verify", "--algorithm", algo, "--height", "2", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("verify: CLEAN"), "{algo}: {stdout}");
    }
    // --n-grid drives the grid side directly (p = 16, the explorer cap)
    let out = apsp()
        .args(["verify", "--algorithm", "fw2d", "--n-grid", "4", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("16 rank(s)"));
}

#[test]
fn protocol_verify_catches_the_bad_fixture() {
    let out = apsp().args(["verify", "--algorithm", "bad-fixture"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "violations exit 1, not a crash");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verify: FAILED"), "{stdout}");
    assert!(stdout.contains("tag-reuse-across-phases"), "{stdout}");
    assert!(stdout.contains("wait-for cycle: 2 -> 3 -> 2"), "{stdout}");
    assert!(stdout.contains("minimal counterexample schedule"), "{stdout}");
    // the violation report is the rendered one — no Debug dumps, and the
    // deadlocked ranks' internal panics never reach stderr
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Box<dyn Any>"), "{stderr}");
}

#[test]
fn machine_errors_render_without_debug_dumps() {
    let graph = tmp("renderer.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    // a dead link aborts the solve (exit 2) through the shared renderer:
    // one readable `machine error:` line, no panic backtraces or `{:?}`
    // dumps from the dying ranks. fw2d's cascade victims die blocked in
    // recv; sparse2d's die mid-send into the dead rank — both directions
    // must stay silent
    for alg in ["fw2d", "sparse2d"] {
        let out = apsp()
            .args(["solve", "--algorithm", alg, "--height", "2"])
            .args(["--faults", "kill=0>2", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{alg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("machine error: unrecoverable fault"), "{alg}: {stderr}");
        assert!(!stderr.contains("panicked"), "{alg}: {stderr}");
        assert!(!stderr.contains("backtrace"), "{alg}: {stderr}");
        assert!(!stderr.contains("FaultError {"), "{alg}: {stderr}");
    }
}

#[test]
fn trace_rejected_for_hostside_algorithm() {
    let graph = tmp("nosup.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    let out = apsp()
        .args(["solve", "--algorithm", "superfw", "--height", "2", "--profile", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated machine"));
}

#[test]
fn solve_metrics_summary_and_export() {
    let graph = tmp("metrics.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // bare --metrics: human summary on stderr, after the solve
    let out = apsp()
        .args(["solve", "--height", "2", "--metrics", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("apsp_minplus_gemm_ops_total"), "{stderr}");
    assert!(stderr.contains("apsp_phase_wall_ns{phase=solve-sparse2d}"), "{stderr}");
    assert!(stderr.contains("apsp_simnet_runs_total"), "{stderr}");

    // --metrics=BASE: Prometheus exposition + JSONL files
    let base = tmp("metrics-out");
    let out = apsp()
        .args(["solve", "--height", "2", "--input"])
        .arg(&graph)
        .arg(format!("--metrics={}", base.display()))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let prom = std::fs::read_to_string(format!("{}.prom", base.display())).unwrap();
    assert!(prom.starts_with("# HELP "), "{prom}");
    assert!(prom.contains("# TYPE apsp_minplus_gemm_ops_total counter"), "{prom}");
    assert!(
        prom.contains("apsp_phase_wall_ns_bucket{phase=\"machine-run\",le=\"+Inf\"}"),
        "{prom}"
    );
    let jsonl = std::fs::read_to_string(format!("{}.jsonl", base.display())).unwrap();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        json::validate(line).unwrap_or_else(|at| panic!("bad JSONL at byte {at}: {line}"));
    }
}

/// A bench baseline whose compare verdict is fixed: every case an hour
/// slower than measured in `json`, so no host noise can make a run against
/// it a regression. The wall-clock gate itself is the perf-smoke CI job.
fn hour_slower_baseline(json: &str) -> String {
    const HOUR_NS: u64 = 3_600_000_000_000;
    let mut inflated = 0;
    let lines: Vec<String> = json
        .lines()
        .map(|line| match line.trim_start().strip_prefix("\"wall_ns\": ") {
            Some(value) => {
                inflated += 1;
                let ns: u64 = value.trim_end_matches(',').parse().unwrap();
                line.replace(value, &format!("{},", ns + HOUR_NS))
            }
            None => line.to_string(),
        })
        .collect();
    assert!(inflated > 0, "no wall_ns field to inflate:\n{json}");
    lines.join("\n")
}

#[test]
fn bench_quick_writes_schema_versioned_json_and_compares() {
    let out_path = tmp("BENCH_test.json");
    let out = apsp()
        .args(["bench", "--iters", "1", "--label", "test", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&out_path).unwrap();
    json::validate(&text).unwrap_or_else(|at| panic!("bad JSON at byte {at}"));
    assert!(text.contains("\"schema\": \"apsp-bench-v1\""), "{text}");
    for key in ["wall_ns", "critical_latency", "gemm_ops", "messages"] {
        assert!(text.contains(key), "missing {key}");
    }

    // the compare plumbing passes against a baseline it cannot regress from
    let slow_path = tmp("BENCH_slow.json");
    std::fs::write(&slow_path, hour_slower_baseline(&text)).unwrap();
    let out = apsp()
        .args(["bench", "--iters", "1", "--label", "test2", "--out"])
        .arg(tmp("BENCH_test2.json"))
        .arg("--compare")
        .arg(&slow_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("within 25%"));

    // a baseline with the wrong schema is rejected loudly
    let bad = tmp("BENCH_bad.json");
    std::fs::write(&bad, text.replace("apsp-bench-v1", "apsp-bench-v0")).unwrap();
    let out = apsp()
        .args(["bench", "--iters", "1", "--out"])
        .arg(tmp("BENCH_test3.json"))
        .arg("--compare")
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema mismatch"));
}

#[test]
fn audit_cli_is_clean_and_speaks_json() {
    let out = apsp()
        .args(["audit", "--max-p", "16", "--root", env!("CARGO_MANIFEST_DIR")])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("source audit: CLEAN"), "{text}");
    assert!(text.contains("cost audit: CLEAN"), "{text}");

    let out = apsp()
        .args(["audit", "--json", "--skip-cost", "--root", env!("CARGO_MANIFEST_DIR")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    json::validate(text.trim()).unwrap_or_else(|at| panic!("bad JSON at byte {at}: {text}"));
    assert!(text.contains("\"clean\":true"), "{text}");
}

#[test]
fn audit_cli_rejects_both_seeded_fixtures() {
    let out = apsp().args(["audit", "--fixture", "cost"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "flood fixture must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATION") && text.contains("flood-fixture"), "{text}");

    let out = apsp().args(["audit", "--fixture", "src"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "source fixture must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("badsource.rs") && text.contains("[wall-clock]"), "{text}");

    let out = apsp().args(["audit", "--fixture", "nope"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn native_backend_solves_match_sim_byte_for_byte() {
    let graph = tmp("backend.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6"])
        .args(["--weights", "integer", "--seed", "3", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());
    // every distributed solver runs on the native backend, verifies, and
    // writes the byte-identical distances file the sim backend writes
    for algo in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        let sim_tsv = tmp(&format!("backend-{algo}-sim.tsv"));
        let nat_tsv = tmp(&format!("backend-{algo}-native.tsv"));
        for (backend, tsv) in [("sim", &sim_tsv), ("native", &nat_tsv)] {
            let out = apsp()
                .args(["solve", "--algorithm", algo, "--height", "2", "--verify"])
                .args(["--backend", backend, "--input"])
                .arg(&graph)
                .arg("--distances")
                .arg(tsv)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{algo}/{backend}: {stderr}");
            assert!(stderr.contains("verified against Dijkstra: OK"), "{algo}/{backend}: {stderr}");
        }
        assert_eq!(
            std::fs::read(&sim_tsv).unwrap(),
            std::fs::read(&nat_tsv).unwrap(),
            "{algo}: native distances drifted from the sim backend"
        );
    }
}

#[test]
fn native_backend_rejects_sim_only_flags_readably() {
    let graph = tmp("backendrej.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // every simulator-only flag dies with the same actionable shape,
    // naming both the flag and the way out (--faults/--recover are no
    // longer in this list — the native backend runs them for real)
    let trace_dir = tmp("backendrej-trace");
    let cases: Vec<(&str, Vec<String>)> = vec![
        ("--trace", vec!["--trace".into(), trace_dir.display().to_string()]),
        ("--profile", vec!["--profile".into()]),
        ("--charge-ordering", vec!["--charge-ordering".into()]),
    ];
    for (flag, extra) in cases {
        let out = apsp()
            .args(["solve", "--height", "2", "--backend", "native"])
            .args(&extra)
            .arg("--input")
            .arg(&graph)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} must be rejected on the native backend");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{flag} needs the simulated machine; drop {flag} or use --backend sim"
            )),
            "{flag}: {stderr}"
        );
    }

    // a bad backend name dies usage-style with the accepted values
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "bogus", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("unknown backend bogus (expected sim or native)"));

    // superfw is host-side shared-memory; --backend means nothing there
    let out = apsp()
        .args(["solve", "--algorithm", "superfw", "--height", "2"])
        .args(["--backend", "native", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("superfw is host-side shared-memory already; --backend does not apply"));
}

#[test]
fn orphan_fault_seed_is_rejected_readably() {
    let graph = tmp("orphanseed.el");
    assert!(apsp()
        .args(["generate", "--kind", "path", "--n", "10", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // --fault-seed alone is a silent no-op trap: reject it loudly
    for backend in ["sim", "native"] {
        let out = apsp()
            .args(["solve", "--height", "2", "--backend", backend])
            .args(["--fault-seed", "7", "--input"])
            .arg(&graph)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{backend}: orphan --fault-seed must be rejected");
        assert_eq!(out.status.code(), Some(2), "{backend}: usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--fault-seed requires --faults"), "{backend}: {stderr}");
    }

    // paired with --faults (or --recover) the seed is legitimate
    let out = apsp()
        .args(["solve", "--height", "2", "--faults", "drop=0.01"])
        .args(["--fault-seed", "7", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn native_faulty_solve_recovers_and_reports() {
    let graph = tmp("nativefault.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // transient chaos on real threads: retransmission alone recovers,
    // the answer verifies, and the digest is seed-deterministic
    let run = || {
        apsp()
            .args(["solve", "--height", "2", "--backend", "native", "--verify"])
            .args(["--faults", "drop=0.05,dup=0.02,corrupt=0.02", "--fault-seed", "7", "--input"])
            .arg(&graph)
            .output()
            .unwrap()
    };
    let out = run();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    assert!(stderr.contains("faults: injected"), "{stderr}");
    assert!(stderr.contains("unrecoverable 0"), "{stderr}");
    let digest = |s: &str| s.lines().find(|l| l.starts_with("faults:")).map(String::from);
    let again = run();
    assert!(again.status.success());
    assert_eq!(
        digest(&stderr),
        digest(&String::from_utf8_lossy(&again.stderr)),
        "native fault replay must be deterministic"
    );
}

#[test]
fn native_recovering_solve_survives_a_killed_thread() {
    let graph = tmp("nativerecover.el");
    assert!(apsp()
        .args(["generate", "--kind", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out"])
        .arg(&graph)
        .status()
        .unwrap()
        .success());

    // rank 4's actual OS thread dies after its first phase boundary; the
    // native supervisor rolls survivors back, respawns onto a spare
    // thread, and the solve still verifies against Dijkstra
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "native", "--verify"])
        .args(["--faults", "kill=4@1", "--recover", "default", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("verified against Dijkstra: OK"), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("recovery:"))
        .unwrap_or_else(|| panic!("no recovery digest on stderr:\n{stderr}"));
    assert!(!line.starts_with("recovery: 0 restarts"), "the kill must force a restart: {line}");
    assert!(line.contains("spares"), "{line}");

    // exhausting the spare budget surfaces a typed unrecoverable error,
    // not a panic, a hang, or a wrong answer
    let out = apsp()
        .args(["solve", "--height", "2", "--backend", "native"])
        .args(["--faults", "kill=4", "--recover", "restarts=1,spares=0", "--input"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("machine error"), "{stderr}");
    assert!(stderr.contains("rank 4"), "{stderr}");
}

#[test]
fn bench_native_backend_writes_and_compares() {
    let out_path = tmp("BENCH_native_test.json");
    let out = apsp()
        .args(["bench", "--backend", "native", "--quick", "--iters", "1"])
        .args(["--label", "native-test", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&out_path).unwrap();
    json::validate(&text).unwrap_or_else(|at| panic!("bad JSON at byte {at}"));
    assert!(text.contains("\"schema\": \"apsp-bench-v1\""), "{text}");
    assert!(text.contains("\"backend\": \"native\""), "{text}");
    // no §3.1 cost model on the native backend: comm clocks report zero,
    // while the host-side kernel counters stay populated
    assert!(text.contains("\"critical_latency\": 0"), "{text}");
    assert!(text.contains("gemm_ops"), "{text}");

    // self-compare under the default tolerance passes
    let out = apsp()
        .args(["bench", "--backend", "native", "--quick", "--iters", "1"])
        .args(["--label", "native-test2", "--out"])
        .arg(tmp("BENCH_native_test2.json"))
        .arg("--compare")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("within 25%"));
}
