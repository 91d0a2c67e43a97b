//! The `fleet` workload: `FleetSim` runs the contended presets at levels
//! 2 and 3 under every policy. The same HeterBO searches run here as
//! tenants behind the strict-handoff driver and the admission policies;
//! driver and policy cost show only here.
//!
//! Two configurations fail every time (see [`FAULTS`]); each round runs
//! them in a child process under a wall limit and counts them as failed.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mlcd::observation::Observation;
use mlcd::prelude::{ExperimentRunner, Optimum, ThroughputModel};
use mlcd_fleet::{policy_by_name, FleetJob, FleetOutcome, FleetScenario, FleetSim, POLICY_NAMES};

use crate::check::{
    check_digest, check_fleet, check_plan, check_probe_spend, check_regret, check_totals, PlanView,
};
use crate::ledger::{print_self_table, Ledger};
use crate::mix::{mix64, round_seed};
use crate::plan::{plan_traced, report_layers, TraceAcc, Traced};
use crate::procstat::{unstolen_share, SetupClock, StealClock};
use crate::{procstat, stats, Opts, RunReport};

/// Scenario seeds every configuration of the workload terminates on: the
/// seeds in 1..=65 on which all six (level × policy) configurations
/// finished within 4 s. At level 3 with the default 12 jobs, `fifo` hangs
/// on seeds 3, 10, 22, 24, 27, 29, 33, 39, 40, 41, 46, 49, 51, 53, 58, 63
/// and `fairshare` on 31 and 58 (README, "Faults").
pub const POOL: [u64; 48] = [
    1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23, 25, 26, 28, 30, 32, 34,
    35, 36, 37, 38, 42, 43, 44, 45, 47, 48, 50, 52, 54, 55, 56, 57, 59, 60, 61, 62, 64, 65,
];
/// Contention levels of `FleetScenario::contended` the workload runs.
const LEVELS: [u8; 2] = [2, 3];
/// Pool seeds per round, each run at both levels: half the pool, so two
/// rounds run every pool scenario once.
const SEEDS_PER_ROUND: usize = POOL.len() / 2;
/// Rounds every run completes, however long it takes; the simulated
/// metrics cover exactly these rounds — the whole pool at both levels.
const SIM_ROUNDS: u64 = 2;
/// Fleet runs between two set-up repetitions; `setup_s` is the median of
/// one set-up before the first run and one after every such stretch.
const SETUP_EVERY: usize = 6;
/// Wall limit of a fault configuration's child process. A healthy fleet
/// run of this size takes 0.1–0.4 s.
const FAULT_WALL: Duration = Duration::from_secs(2);
/// Traced fleet runs per round whose jobs also run alone, job by job, for
/// `fleet.host_ratio`, `fleet.cost_vs_isolated` and the layers the fleet's
/// tenants run but the fleet hides: one per level × policy.
const ISOLATED_PER_ROUND: usize = 6;
/// Fleet jobs whose observation prefixes the GP replay refits.
const GP_REPLAY_JOBS: usize = 12;

/// A configuration that fails every time today.
pub struct Fault {
    pub level: u8,
    pub policy: &'static str,
    pub seed: u64,
    pub jobs: u32,
}

/// (a) `DeadlineAware::decide` calls `SimTime::since` on a deadline that
/// has already passed and panics with `SimDuration: bad seconds`;
/// (b) `fifo` at level 3, seed 3 never terminates.
pub const FAULTS: [Fault; 2] = [
    Fault { level: 3, policy: "deadline", seed: 2020, jobs: 36 },
    Fault { level: 3, policy: "fifo", seed: 3, jobs: 12 },
];

fn scenario(level: u8, seed: u64, jobs: Option<u32>) -> FleetScenario {
    let mut s = FleetScenario::contended(level, seed);
    if let Some(n) = jobs {
        s.n_jobs = n;
    }
    s
}

/// Run one configuration in-process.
pub fn run_config(
    level: u8,
    policy: &str,
    seed: u64,
) -> Result<(FleetScenario, FleetOutcome), String> {
    let s = scenario(level, seed, None);
    let p = policy_by_name(policy).ok_or_else(|| format!("unknown policy {policy}"))?;
    let out = FleetSim::new(s.clone(), p).run();
    Ok((s, out))
}

/// Child-process entry: `--fleet-child LEVEL POLICY SEED JOBS`. Exit 0
/// when the run finishes and passes the fleet check, 2 when the check
/// fails; a panic exits 101.
pub fn child_main(args: &[String]) -> ExitCode {
    let parsed = (|| -> Option<(u8, String, u64, u32)> {
        Some((
            args.first()?.parse().ok()?,
            args.get(1)?.clone(),
            args.get(2)?.parse().ok()?,
            args.get(3)?.parse().ok()?,
        ))
    })();
    let Some((level, policy, seed, jobs)) = parsed else {
        eprintln!("perfbench --fleet-child LEVEL POLICY SEED JOBS");
        return ExitCode::from(2);
    };
    let s = scenario(level, seed, Some(jobs));
    let Some(p) = policy_by_name(&policy) else { return ExitCode::from(2) };
    let out = FleetSim::new(s.clone(), p).run();
    match check_fleet(&out, &s.jobs()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleet child: {e}");
            ExitCode::from(2)
        }
    }
}

/// Outcome of a fault configuration's child process.
enum ChildEnd {
    Ok,
    CheckFailed,
    Failed(String),
}

fn run_fault(f: &Fault) -> Result<ChildEnd, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--fleet-child",
            &f.level.to_string(),
            f.policy,
            &f.seed.to_string(),
            &f.jobs.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn fleet child: {e}"))?;
    let t = Instant::now();
    loop {
        match child.try_wait().map_err(|e| format!("wait fleet child: {e}"))? {
            Some(status) if status.success() => return Ok(ChildEnd::Ok),
            Some(status) if status.code() == Some(2) => return Ok(ChildEnd::CheckFailed),
            Some(status) => return Ok(ChildEnd::Failed(format!("exited with {status}"))),
            None if t.elapsed() >= FAULT_WALL => {
                let _ = child.kill();
                child.wait().map_err(|e| format!("reap fleet child: {e}"))?;
                return Ok(ChildEnd::Failed(format!("still running after {:?}", FAULT_WALL)));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The configurations of one round: the run seed shuffles the pool once,
/// and even and odd rounds take its two halves, each seed at both levels
/// — so any two consecutive rounds run every pool scenario once, and a
/// run's cost does not hinge on which scenarios it drew. The policies
/// rotate over a round's runs from an offset drawn from the run seed and
/// the round, so each policy runs a third of them at each level.
fn round_configs(seed: u64, round: u64) -> Vec<(u8, &'static str, u64)> {
    let base = mix64(seed);
    let mut pool = POOL.to_vec();
    for i in 0..pool.len() - 1 {
        let j = i + (mix64(base.wrapping_add(i as u64)) % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    let half = (round % 2) as usize * SEEDS_PER_ROUND;
    let offset = (round_seed(seed, round) % POLICY_NAMES.len() as u64) as usize;
    pool[half..half + SEEDS_PER_ROUND]
        .iter()
        .enumerate()
        .flat_map(|(i, &s)| {
            LEVELS.iter().enumerate().map(move |(l, &level)| {
                (level, POLICY_NAMES[(2 * i + l + offset) % POLICY_NAMES.len()], s)
            })
        })
        .collect()
}

/// Oracles of the fleet's job templates, keyed by job and scenario.
#[derive(Default)]
struct Oracles(BTreeMap<String, Option<Optimum>>);

impl Oracles {
    fn get(&mut self, s: &FleetScenario, j: &FleetJob) -> Option<Optimum> {
        let key = format!("{} {:?}", j.job_name, j.scenario);
        *self.0.entry(key).or_insert_with(|| {
            ExperimentRunner::new(j.seed)
                .with_types(s.types.clone())
                .with_max_nodes(s.max_nodes)
                .optimum(&j.job, &j.scenario)
        })
    }
}

/// Totals of checked fleet runs.
#[derive(Default)]
struct FleetTotals {
    jobs: u64,
    profile_usd: f64,
    profile_h: f64,
    regrets: Vec<f64>,
    grants: u64,
    denials: u64,
    queue_h: f64,
    runs: u64,
}

impl FleetTotals {
    fn add(&mut self, out: &FleetOutcome, regrets: &[f64]) {
        for o in out.jobs.iter().filter_map(|j| j.outcome.as_ref()) {
            self.profile_usd += o.search.profile_cost.dollars();
            self.profile_h += o.search.profile_time.as_hours();
        }
        self.regrets.extend_from_slice(regrets);
        self.jobs += out.jobs.len() as u64;
        self.grants += out.agg.granted;
        self.denials += out.agg.denied;
        self.queue_h += out.agg.mean_queue_hours;
        self.runs += 1;
    }
}

/// Check one fleet run and each tenant's plan; the tenants' regrets.
fn check_run(
    report: &mut RunReport,
    oracles: &mut Oracles,
    level: u8,
    s: &FleetScenario,
    out: &FleetOutcome,
) -> Vec<f64> {
    let tag = format!("level {level} {} seed {}", out.policy, s.seed);
    let jobs = s.jobs();
    if let Err(e) = check_fleet(out, &jobs) {
        report.fail(&format!("{tag}: {e}"));
        return Vec::new();
    }
    let mut regrets = Vec::new();
    for (j, spec) in out.jobs.iter().zip(&jobs) {
        let Some(o) = &j.outcome else { continue };
        let v = PlanView::from(o);
        let checked = check_totals(&v)
            .and_then(|()| check_probe_spend(&v))
            .and_then(|()| check_regret(&v, oracles.get(s, spec).as_ref()));
        match checked {
            Ok(regret) => regrets.extend(regret),
            Err(e) => report.fail(&format!("{tag} job {}: {e}", j.id)),
        }
    }
    regrets
}

/// Every job of the scenario run alone, as `per_job_greedy_cost` does,
/// traced layer by layer: the tenants build their profiling env inside
/// `FleetSim`, so the search, profiler and event engine they run are
/// timed here, on the same plans made outside the fleet. Each plan is
/// checked like a `plan` workload plan. Host seconds and total cost.
fn isolated(
    report: &mut RunReport,
    oracles: &mut Oracles,
    s: &FleetScenario,
    ledger: &mut Ledger,
    acc: &mut TraceAcc,
) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let mut cost = 0.0;
    for j in s.jobs() {
        let p = Traced {
            runner: ExperimentRunner::new(j.seed)
                .with_types(s.types.clone())
                .with_max_nodes(s.max_nodes),
            searcher: j.searcher,
            seed: j.seed,
            job: &j.job,
            scenario: &j.scenario,
        };
        let out = plan_traced("op", p, ledger, acc)?;
        let oracle = oracles.get(s, &j);
        if let Err(e) =
            check_plan(&PlanView::from(&out), &j.job, oracle.as_ref(), &ThroughputModel::default())
        {
            report.fail(&format!("seed {} job {} alone: {e}", s.seed, j.id));
        }
        cost += out.total_cost.dollars();
    }
    Ok((t.elapsed().as_secs_f64(), cost))
}

fn setup_once() -> Result<(), String> {
    for (level, _, seed) in round_configs(0, 0) {
        std::hint::black_box(scenario(level, seed, None).jobs());
    }
    let (s, out) = run_config(3, "deadline", POOL[0])?;
    check_fleet(&out, &s.jobs())
}

pub fn run(opts: &Opts) -> Result<RunReport, String> {
    let mut report = RunReport::new(opts.trace);
    let me = std::process::id();
    let steal = StealClock::new()?;
    let (t0, steal0) = (Instant::now(), steal.secs()?);
    let mut setups = SetupClock::new(me);
    setups.time(setup_once)?;

    let cpu0 = procstat::cpu_secs(me)?;
    let t_start = Instant::now();
    let mut oracles = Oracles::default();
    let mut totals = FleetTotals::default();
    let mut traced = FleetTotals::default();
    let mut sim = FleetTotals::default();
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut op_s = 0.0;
    let mut ledger = Ledger::new(t_start);
    let mut acc = TraceAcc::default();
    let (mut traced_s, mut traced_n) = (0.0, 0u64);
    let (mut iso_s, mut iso_cost, mut iso_fleet_s, mut iso_fleet_cost) = (0.0, 0.0, 0.0, 0.0);
    let mut replays: Vec<(FleetScenario, FleetJob, Vec<Observation>)> = Vec::new();
    let mut round = 0u64;
    loop {
        let mut configs = round_configs(opts.seed, round);
        if opts.quick {
            configs.truncate(3);
        }
        let mut digests: BTreeMap<(u8, &str, u64), String> = BTreeMap::new();
        for (i, &(level, policy, seed)) in configs.iter().enumerate() {
            if i > 0 && i % SETUP_EVERY == 0 && !opts.quick {
                setups.time(setup_once)?;
            }
            let t = Instant::now();
            let (s, out) = run_config(level, policy, seed)?;
            let dt = t.elapsed().as_secs_f64();
            op_s += dt;
            lat_ms.push(dt * 1e3);
            let regrets = check_run(&mut report, &mut oracles, level, &s, &out);
            totals.add(&out, &regrets);
            if opts.quick || round < SIM_ROUNDS {
                sim.add(&out, &regrets);
            }
            digests.insert((level, policy, seed), out.digest());
        }
        // The round's first configuration once more: same digest.
        let (level, policy, seed) = configs[0];
        let t = Instant::now();
        let (s, out) = run_config(level, policy, seed)?;
        let dt = t.elapsed().as_secs_f64();
        op_s += dt;
        lat_ms.push(dt * 1e3);
        let regrets = check_run(&mut report, &mut oracles, level, &s, &out);
        totals.add(&out, &regrets);
        if let Err(e) = check_digest(&digests[&(level, policy, seed)], &out.digest()) {
            report.fail(&format!("level {level} {policy} seed {seed}: {e}"));
        }
        report.attempted += configs.len() as u64 + 1;
        for f in &FAULTS {
            report.attempted += 1;
            match run_fault(f)? {
                ChildEnd::Ok => {}
                ChildEnd::CheckFailed => report.fail(&format!(
                    "fault config {} seed {}: fleet check failed",
                    f.policy, f.seed
                )),
                ChildEnd::Failed(why) => {
                    report.failed += 1;
                    if round == 0 {
                        eprintln!(
                            "fleet: level {} {} seed {} --jobs {}: {why}",
                            f.level, f.policy, f.seed, f.jobs
                        );
                    }
                }
            }
        }

        if opts.trace {
            for (i, &(level, policy, seed)) in configs.iter().enumerate() {
                let s = scenario(level, seed, None);
                let p = policy_by_name(policy).ok_or("unknown policy")?;
                ledger.set_op(traced_n);
                let fleet_sim = FleetSim::new(s.clone(), p);
                let t = Instant::now();
                let run_span = ledger.begin("fleet.run");
                let out = fleet_sim.run();
                ledger.end(run_span);
                let dt = t.elapsed().as_secs_f64();
                traced_s += dt;
                traced_n += 1;
                let jobs = s.jobs();
                let regrets = check_run(&mut report, &mut oracles, level, &s, &out);
                traced.add(&out, &regrets);
                if let Err(e) = check_digest(&digests[&(level, policy, seed)], &out.digest()) {
                    report.fail(&format!("traced level {level} {policy} seed {seed}: {e}"));
                }
                if i < ISOLATED_PER_ROUND {
                    let (i_s, i_cost) =
                        isolated(&mut report, &mut oracles, &s, &mut ledger, &mut acc)?;
                    iso_s += i_s;
                    iso_cost += i_cost;
                    iso_fleet_s += dt;
                    iso_fleet_cost += out.agg.total_cost.dollars();
                }
                for (j, spec) in out.jobs.iter().zip(&jobs) {
                    if replays.len() < GP_REPLAY_JOBS {
                        if let Some(o) = &j.outcome {
                            let obs = o.search.steps.iter().map(|s| s.observation).collect();
                            replays.push((s.clone(), spec.clone(), obs));
                        }
                    }
                }
            }
            report.attempted += configs.len() as u64;
        }
        round += 1;
        let min_rounds = if opts.trace { 1 } else { SIM_ROUNDS };
        if opts.quick || (round >= min_rounds && t_start.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    let wall = t_start.elapsed().as_secs_f64();
    let cpu = procstat::cpu_secs(me)? - cpu0 - setups.cpu_s;
    let ran = unstolen_share(&steal, steal0, t0.elapsed().as_secs_f64())?;
    eprintln!(
        "fleet: {round} rounds, {} runs, {} jobs in {wall:.2} s, setup {:?}, {:.1}% of host time stolen",
        totals.runs,
        totals.jobs,
        setups.summary(),
        (1.0 - ran) * 100.0
    );
    report.traced_ops = traced_n;

    if !opts.trace {
        let jobs = totals.jobs as f64;
        report.set("setup_s", stats::median(&setups.wall_s) * ran);
        report.set("plans_per_s", jobs / (op_s * ran));
        report.set("latency_p50_ms", stats::quantile(&lat_ms, 0.5) * ran);
        report.set("latency_p90_ms", stats::quantile(&lat_ms, 0.9) * ran);
        report.set("cpu_ms_per_plan", cpu * 1e3 / jobs);
        report.set("peak_rss_mb", procstat::peak_rss_mb(me)?);
        report.set("profile_usd", sim.profile_usd / sim.jobs as f64);
        report.set("profile_h", sim.profile_h / sim.jobs as f64);
        report.set("regret", stats::geomean(&sim.regrets));
        return Ok(report);
    }

    let by = ledger.by_name();
    print_self_table("fleet", &by, traced_n);
    let path = opts.work_dir.join(format!("spans-fleet-seed{}.jsonl", opts.seed));
    ledger.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let (op, run_span) = (get("op"), get("fleet.run"));
    let jobs = traced.jobs.max(1) as f64;
    let runs = traced.runs.max(1) as f64;
    report_layers(&mut report, &by, &acc, "op");
    report.set("fleet.run_ms", run_span.total_ns as f64 / 1e6 / runs);
    report.set("fleet.host_ratio", stats::ratio(iso_fleet_s, iso_s));
    report.set("fleet.grants", traced.grants as f64 / jobs);
    report.set("fleet.denials", traced.denials as f64 / jobs);
    report.set("fleet.queue_h", traced.queue_h / runs);
    report.set("fleet.cost_vs_isolated", stats::ratio(iso_fleet_cost, iso_cost));
    report.set("residual.share", stats::ratio(op.self_ns as f64, op.total_ns as f64));
    report.set(
        "trace.overhead",
        stats::ratio(traced_s / traced_n.max(1) as f64, op_s / totals.runs.max(1) as f64) - 1.0,
    );
    let replays: Vec<_> = replays
        .into_iter()
        .map(|(s, j, obs)| {
            let space = ExperimentRunner::new(j.seed)
                .with_types(s.types.clone())
                .with_max_nodes(s.max_nodes)
                .space(&j.job);
            (space, obs, j.seed)
        })
        .collect();
    crate::plan::gp_replay(&mut report, &replays);
    Ok(report)
}
