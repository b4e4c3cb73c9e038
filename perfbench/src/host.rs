//! The machine a result was measured on: core count, CPU model, caches.

use std::fmt::Write as _;

/// What a result records about its host.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cache levels of CPU 0, e.g. `L1d 32K`, `L2 4096K`.
    pub caches: Vec<String>,
}

impl Host {
    /// Reads the host description; missing sources read as unknown.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host { nproc, cpu_model, caches: caches() }
    }

    /// The host as a JSON object body (no braces).
    pub fn json_fields(&self) -> String {
        let mut s = String::new();
        let caches: Vec<String> = self.caches.iter().map(|c| format!("\"{c}\"")).collect();
        let _ = write!(
            s,
            "\"nproc\": {}, \"cpu_model\": \"{}\", \"caches\": [{}]",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            caches.join(", ")
        );
        s
    }
}

fn caches() -> Vec<String> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |dir: &str, file: &str| {
        std::fs::read_to_string(format!("{base}/{dir}/{file}")).ok().map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("index{index}");
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{suffix} {size}"));
    }
    out
}
