//! The repo benchmark: one workload per process, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run. See
//! `README.md` beside this file for the workloads, the metrics and how
//! they interact, and `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! Human-readable tables go to standard output first; the last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when a correctness check fails.

#[cfg(target_os = "linux")]
mod client;
#[cfg(target_os = "linux")]
mod layers;
#[cfg(target_os = "linux")]
mod pipeline;
#[cfg(target_os = "linux")]
mod stats;
#[cfg(target_os = "linux")]
mod stream;
#[cfg(target_os = "linux")]
mod trace;

#[cfg(target_os = "linux")]
fn main() {
    let usage = || -> ! {
        eprintln!(
            "usage: benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]]",
            pipeline::WORKLOADS.join("|")
        );
        std::process::exit(2)
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 20.0f64, false);
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // the driver passes a value, a person may leave it out
            trace = it.next_if(|v| matches!(*v, "0" | "1")) != Some("0");
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag {
            "--workload" => workload = pipeline::spec(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(spec) = workload else { usage() };
    if !(seconds >= 1.0 && seconds.is_finite()) {
        usage();
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < pipeline::TRAIN_THREADS {
        eprintln!(
            "benchmark: {cores} core: train_parallel_wall_s and parallel.speedup show no parallelism here"
        );
    }

    // everything the run writes stays under the directory it was started in
    let root = std::path::Path::new("target").join("benchmark");
    let dir = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let outcome = pipeline::run(&spec, seed, seconds, trace, &dir);
    std::fs::remove_dir_all(&dir).expect("remove the run directory");

    println!(
        "workload {} seed {seed} seconds {seconds} trace {} cores {cores}",
        spec.name,
        u8::from(trace)
    );
    println!("{:<40} {:>16} {:<7} {:>9}", "metric", "value", "unit", "n");
    for m in &outcome.metrics {
        println!("{:<40} {:>16.4} {:<7} {:>9}", m.name, m.value, m.unit, m.n);
    }
    let mut correct = outcome.metrics.iter().all(|m| m.value.is_finite());
    for (what, passed) in &outcome.checks {
        println!("check {}: {what}", if *passed { "ok" } else { "FAILED" });
        correct &= *passed;
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("benchmark: the TCP serving tier requires Linux (epoll)");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    /// The `[profile.release…]` tables of a manifest, comments and blank
    /// lines dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        let mut inside = false;
        let mut lines = Vec::new();
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                inside = line.starts_with("[profile.release");
            }
            if inside && !line.is_empty() && !line.starts_with('#') {
                lines.push(line);
            }
        }
        lines
    }

    /// Cargo ignores the workspace's profiles when it builds this
    /// directory through its own manifest, so that manifest repeats them;
    /// a change to one without the other would have the benchmark measure
    /// a build nobody ships.
    #[test]
    fn own_manifest_repeats_the_workspace_release_profile() {
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty(), "no release profile found");
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }
}
