//! `perfbench` — end-to-end and per-layer benchmark of the MLCD workspace.
//!
//! ```text
//! perfbench --workload plan|serve|fleet --seed N --seconds S --trace 0|1 \
//!           [--serve-bin PATH] [--work-dir DIR]
//! perfbench --quick [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! Each run sets up its workload, runs whole rounds of closed-loop
//! operations for `--seconds`, checks every output, and prints one JSON
//! object as the last line of stdout: `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced rounds and reports the per-layer
//! ledger instead. `--quick` runs a few operations of every workload and
//! feeds every correctness check one corrupted output.
//!
//! `perfbench/run.py` builds this binary and `mlcd-serve` and is the
//! intended entry point; see `perfbench/README.md`.

mod check;
mod fleet;
mod ledger;
mod mix;
mod plan;
mod procstat;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Hard wall limit of one benchmark process: past it a watchdog ends the
/// process with an error instead of letting a stalled run hang.
const WATCHDOG: Duration = Duration::from_secs(165);

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("plans_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_plan", "ms"),
    ("peak_rss_mb", "MiB"),
    ("profile_usd", "USD"),
    ("profile_h", "h"),
    ("regret", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// every one of them; a layer off the workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("search.self_ms", "ms"),
    ("search.scored", "count"),
    ("search.pruned", "count"),
    ("search.probes", "count"),
    ("gp.fit_us", "us"),
    ("gp.predict_batch_us", "us"),
    ("gp.fits", "count"),
    ("gp.predicted_points", "count"),
    ("profiler.profile_us", "us"),
    ("profiler.quote_us", "us"),
    ("profiler.quotes", "count"),
    ("profiler.extended", "count"),
    ("profiler.share", "ratio"),
    ("profiler.self_ms", "ms"),
    ("cloudsim.events", "count"),
    ("cloudsim.ns_per_event", "ns"),
    ("experiment.complete_us", "us"),
    ("experiment.self_ms", "ms"),
    ("net.submit_ms", "ms"),
    ("net.result_ms", "ms"),
    ("net.read_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("grid.hit_ratio", "ratio"),
    ("journal.records_per_group", "ratio"),
    ("journal.recover_ms_per_session", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.host_ratio", "ratio"),
    ("fleet.grants", "count"),
    ("fleet.denials", "count"),
    ("fleet.queue_h", "h"),
    ("fleet.cost_vs_isolated", "ratio"),
    ("residual.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One reported metric value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub traced: bool,
    /// Operations a traced run timed with spans.
    pub traced_ops: u64,
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl RunReport {
    /// An empty report; a traced one starts with every per-layer metric
    /// at 0, for the layers the workload never reaches.
    pub fn new(traced: bool) -> RunReport {
        let mut r = RunReport { correct: true, traced, ..Default::default() };
        if traced {
            for (name, unit) in PER_LAYER {
                r.metrics.insert(name, Metric { value: 0.0, unit });
            }
        }
        r
    }

    /// Set a metric by name; its unit comes from [`E2E`] or [`PER_LAYER`].
    ///
    /// # Panics
    /// On a name in neither table (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = E2E
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("perfbench: unknown metric {name}"));
        self.metrics.insert(name, Metric { value, unit });
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, what: &str) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.correct = false;
    }
}

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub work_dir: PathBuf,
    /// Quick mode: a few operations per workload, for self-tests.
    pub quick: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload plan|serve|fleet --seed N --seconds S --trace 0|1 \
         [--serve-bin PATH] [--work-dir DIR]\n       perfbench --quick [--serve-bin PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The GP's multi-start optimiser fans out over `RAYON_NUM_THREADS`
    // threads (default: every core). Held to one, a plan is single
    // threaded, the serve workload's two workers use the host's two cores,
    // and run-to-run spread halves. Set before any fan-out reads it;
    // `mlcd-serve` and the fault children inherit it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--fleet-child") {
        return fleet::child_main(&args[1..]);
    }

    let mut workload: Option<String> = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        work_dir: PathBuf::from(".perfbench"),
        quick: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let r: Result<(), String> = match a.as_str() {
            "--workload" => val("--workload").map(|v| workload = Some(v)),
            "--seed" => val("--seed")
                .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                .map(|v| opts.seed = v),
            "--seconds" => val("--seconds")
                .and_then(|v| v.parse::<f64>().map_err(|e| format!("--seconds: {e}")))
                .and_then(|v| {
                    if v > 0.0 && v <= 120.0 {
                        opts.seconds = v;
                        Ok(())
                    } else {
                        Err(format!("--seconds must be in (0, 120], got {v}"))
                    }
                }),
            "--trace" => val("--trace").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    opts.trace = v == "1";
                    Ok(())
                }
                other => Err(format!("--trace takes 0 or 1, got {other}")),
            }),
            "--serve-bin" => val("--serve-bin").map(|v| opts.serve_bin = Some(PathBuf::from(v))),
            "--work-dir" => val("--work-dir").map(|v| opts.work_dir = PathBuf::from(v)),
            "--quick" => {
                opts.quick = true;
                Ok(())
            }
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(msg) = r {
            return usage(&msg);
        }
    }

    let started = Instant::now();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG.saturating_sub(started.elapsed()));
        eprintln!("perfbench: watchdog: run exceeded {} s, giving up", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }

    if opts.quick {
        return quick(&opts);
    }
    let report = match workload.as_deref() {
        Some("plan") => plan::run(&opts),
        Some("serve") => serve::run(&opts),
        Some("fleet") => fleet::run(&opts),
        Some(other) => return usage(&format!("unknown workload `{other}`")),
        None => return usage("--workload is required"),
    };
    match report {
        Ok(report) => {
            eprintln!("perfbench: done in {:.1} s", started.elapsed().as_secs_f64());
            match render(&report) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line. Every value must be finite: a NaN would mean a
/// metric had no samples, which is a benchmark bug, not a measurement.
fn render(r: &RunReport) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if r.traced { &PER_LAYER } else { &E2E };
    if r.metrics.len() != wanted.len() || wanted.iter().any(|(n, _)| !r.metrics.contains_key(n)) {
        let have: Vec<&str> = r.metrics.keys().copied().collect();
        return Err(format!("metric set {have:?} is not the expected set"));
    }
    let mut parts = Vec::with_capacity(r.metrics.len());
    for (name, m) in &r.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", m.value));
        }
        parts.push(format!("\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        parts.join(", ")
    ))
}

/// Quick mode: every workload for a few operations (untraced, and traced
/// with at least one traced op), then every correctness check against one
/// corrupted output.
fn quick(opts: &Opts) -> ExitCode {
    let mut ok = true;
    type Runner = fn(&Opts) -> Result<RunReport, String>;
    let runs: [(&str, Runner); 3] =
        [("plan", plan::run), ("serve", serve::run), ("fleet", fleet::run)];
    for (name, run) in runs {
        for trace in [false, true] {
            let o = Opts { trace, ..opts.clone() };
            match run(&o) {
                Ok(r) if r.correct && r.attempted > 0 && (!trace || r.traced_ops > 0) => {
                    eprintln!(
                        "quick: {name} trace={} ok: {} ops, {} failed, {} metrics",
                        u8::from(trace),
                        r.attempted,
                        r.failed,
                        r.metrics.len()
                    );
                    if let Err(e) = render(&r) {
                        eprintln!("quick: {name}: {e}");
                        ok = false;
                    }
                }
                Ok(r) => {
                    eprintln!(
                        "quick: {name} trace={}: correct={} attempted={} traced ops={}",
                        u8::from(trace),
                        r.correct,
                        r.attempted,
                        r.traced_ops
                    );
                    ok = false;
                }
                Err(e) => {
                    eprintln!("quick: {name} trace={}: {e}", u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    match check::self_test() {
        Ok(n) => eprintln!("quick: {n} corrupted outputs, every one rejected"),
        Err(e) => {
            eprintln!("quick: corruption self-test: {e}");
            ok = false;
        }
    }
    println!("quick: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
