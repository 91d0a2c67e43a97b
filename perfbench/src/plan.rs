//! The `plan` workload: one client plans the mix in-process through
//! `ExperimentRunner::run`, the path one `mlcd search` takes. It loads
//! the search kernel, the GP, the profiler and the simulated cloud, and
//! bypasses the service and the fleet.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use mlcd::deployment::{Deployment, SearchSpace};
use mlcd::env::{ProfileError, ProfilingEnv};
use mlcd::observation::Observation;
use mlcd::prelude::{
    ExperimentOutcome, ExperimentRunner, Money, Scenario, SimDuration, ThroughputModel, TrainingJob,
};
use mlcd::search::{searcher_by_name, Surrogate, TraceEvent, TraceSink};

use crate::check::{check_plan, PlanView};
use crate::ledger::{print_self_table, Ledger, NameTotals};
use crate::mix::{op_seed, JobMix, SpaceConfig, Spec};
use crate::procstat::{unstolen_share, SetupClock, StealClock};
use crate::{procstat, stats, Opts, RunReport};

/// Seed of the set-up plans: fixed, so every run sets up the same work.
const SETUP_SEED: u64 = 2020;
/// Rounds between two set-up repetitions; `setup_s` is the median of
/// one set-up before the first round and one after every such stretch.
const SETUP_EVERY: u64 = 2;
/// Rounds every run completes, however long it takes; the simulated
/// metrics (spend, hours, regret) cover exactly these rounds, so they do
/// not depend on how fast the host is.
const SIM_ROUNDS: u64 = 10;
/// Traced plans whose observation prefixes the GP replay refits.
const GP_REPLAY_PLANS: usize = 12;

/// A timing [`ProfilingEnv`] around the profiler: each probe call is a
/// `profiler` span; quotes, called once per candidate, are timed in
/// aggregate and charged to the enclosing span afterwards.
pub struct TimedEnv<'a, E> {
    inner: &'a mut E,
    ledger: &'a mut Ledger,
    quote_ns: Cell<u64>,
    quotes: Cell<u64>,
}

impl<'a, E: ProfilingEnv> TimedEnv<'a, E> {
    pub fn new(inner: &'a mut E, ledger: &'a mut Ledger) -> Self {
        TimedEnv { inner, ledger, quote_ns: Cell::new(0), quotes: Cell::new(0) }
    }
}

impl<E: ProfilingEnv> ProfilingEnv for TimedEnv<'_, E> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }
    fn total_samples(&self) -> f64 {
        self.inner.total_samples()
    }
    fn quote(&self, d: &Deployment) -> (SimDuration, Money) {
        let t = Instant::now();
        let q = self.inner.quote(d);
        self.quote_ns.set(self.quote_ns.get() + t.elapsed().as_nanos() as u64);
        self.quotes.set(self.quotes.get() + 1);
        q
    }
    fn profile(&mut self, d: &Deployment) -> Result<Observation, ProfileError> {
        let s = self.ledger.begin("profiler");
        let r = self.inner.profile(d);
        self.ledger.end(s);
        r
    }
    fn profile_batch(&mut self, ds: &[Deployment]) -> Vec<Result<Observation, ProfileError>> {
        let s = self.ledger.begin("profiler");
        let r = self.inner.profile_batch(ds);
        self.ledger.end(s);
        r
    }
    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }
    fn spent(&self) -> Money {
        self.inner.spent()
    }
}

/// A trace sink that only counts the kernel's decisions.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub scored: u64,
    pub pruned: u64,
    pub probes: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::CandidateScored { .. } => self.scored += 1,
            TraceEvent::CandidatePruned { .. } => self.pruned += 1,
            TraceEvent::InitProbe { .. }
            | TraceEvent::Probe { .. }
            | TraceEvent::ProbeFailed { .. } => self.probes += 1,
            _ => {}
        }
    }
}

/// Simulation events dispatched so far in this process.
pub fn events_dispatched() -> u64 {
    mlcd_cloudsim::global_event_counters().iter().map(|c| c.dispatched).sum()
}

fn plan_untraced(mix: &JobMix, spec: Spec, seed: u64) -> Result<ExperimentOutcome, String> {
    let e = &mix.jobs[spec.job];
    let runner = mix.space.runner(seed);
    let searcher = searcher_by_name(spec.searcher, seed).ok_or("unknown searcher")?;
    Ok(runner.run(searcher.as_ref(), &e.job, &e.scenarios[spec.scenario]))
}

/// Counters the traced plans add up.
#[derive(Default)]
pub struct TraceAcc {
    sink: CountingSink,
    quote_ns: u64,
    quotes: u64,
    extended: u64,
    events: u64,
    plans: u64,
}

impl TraceAcc {
    /// Plans traced so far.
    pub fn plans(&self) -> u64 {
        self.plans
    }
}

/// One plan to trace: what `ExperimentRunner::run` would be called with.
pub struct Traced<'a> {
    pub runner: ExperimentRunner,
    pub searcher: &'a str,
    pub seed: u64,
    pub job: &'a TrainingJob,
    pub scenario: &'a Scenario,
}

/// The same plan as `ExperimentRunner::run`, driven step by step through
/// the runner's public seams with every layer call wrapped in a span
/// nested in one `top` span. `ExperimentRunner::run` is exactly
/// `profiler_for` → `search_traced` → `complete`, so the outcome is
/// bit-identical.
pub fn plan_traced(
    top: &'static str,
    p: Traced<'_>,
    ledger: &mut Ledger,
    acc: &mut TraceAcc,
) -> Result<ExperimentOutcome, String> {
    let Traced { runner, searcher, seed, job, scenario } = p;
    let ev0 = events_dispatched();
    let op = ledger.begin(top);
    let s = ledger.begin("experiment");
    let searcher = searcher_by_name(searcher, seed).ok_or("unknown searcher")?;
    let mut profiler = runner.profiler_for(job);
    ledger.end(s);
    let s = ledger.begin("search");
    let (outcome, quote_ns, quotes) = {
        let mut env = TimedEnv::new(&mut profiler, ledger);
        let o = searcher.search_traced(&mut env, scenario, &mut acc.sink);
        (o, env.quote_ns.get(), env.quotes.get())
    };
    ledger.charge(quote_ns);
    ledger.end(s);
    acc.extended += profiler.n_extended() as u64;
    let s = ledger.begin("experiment.complete");
    let out = runner.complete(profiler, outcome, searcher.name(), scenario);
    ledger.end(s);
    ledger.end(op);
    acc.events += events_dispatched() - ev0;
    acc.quote_ns += quote_ns;
    acc.quotes += quotes;
    acc.plans += 1;
    Ok(out)
}

/// The search, profiler, cloudsim and experiment layer metrics of the
/// plans traced under `top` spans, per plan.
pub fn report_layers(
    report: &mut RunReport,
    by: &BTreeMap<&'static str, NameTotals>,
    acc: &TraceAcc,
    top: &str,
) {
    let n = acc.plans.max(1) as f64;
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let (op, search, prof) = (get(top), get("search"), get("profiler"));
    let (exp, complete) = (get("experiment"), get("experiment.complete"));
    let prof_ns = prof.total_ns as f64 + acc.quote_ns as f64;
    report.set("search.self_ms", search.self_ns as f64 / 1e6 / n);
    report.set("search.scored", acc.sink.scored as f64 / n);
    report.set("search.pruned", acc.sink.pruned as f64 / n);
    report.set("search.probes", acc.sink.probes as f64 / n);
    report.set("profiler.profile_us", stats::ratio(prof.total_ns as f64 / 1e3, prof.count as f64));
    report.set("profiler.quote_us", stats::ratio(acc.quote_ns as f64 / 1e3, acc.quotes as f64));
    report.set("profiler.quotes", acc.quotes as f64 / n);
    report.set("profiler.extended", acc.extended as f64 / n);
    report.set("profiler.share", stats::ratio(prof_ns, op.total_ns as f64));
    report.set("profiler.self_ms", prof_ns / 1e6 / n);
    report.set("cloudsim.events", acc.events as f64 / n);
    report.set("cloudsim.ns_per_event", stats::ratio(prof.total_ns as f64, acc.events as f64));
    report.set(
        "experiment.complete_us",
        stats::ratio(complete.total_ns as f64 / 1e3, complete.count as f64),
    );
    report.set("experiment.self_ms", (exp.self_ns + complete.self_ns) as f64 / 1e6 / n);
}

/// Bit-exact fingerprint of a plan outcome.
fn fingerprint(o: &ExperimentOutcome) -> String {
    format!(
        "{}cost={:016x} time={:016x}",
        o.search.digest(),
        o.total_cost.dollars().to_bits(),
        o.total_time.as_secs().to_bits()
    )
}

/// Totals of checked plans, for the end-to-end metrics.
#[derive(Default)]
pub struct PlanTotals {
    pub n: u64,
    pub profile_usd: f64,
    pub profile_h: f64,
    pub regrets: Vec<f64>,
}

impl PlanTotals {
    /// Check one plan; fold it into the simulated metrics when `sim`.
    pub fn add(
        &mut self,
        report: &mut RunReport,
        mix: &JobMix,
        spec: Spec,
        v: &PlanView,
        sim: bool,
    ) {
        let e = &mix.jobs[spec.job];
        let regret = match check_plan(
            v,
            &e.job,
            e.oracles[spec.scenario].as_ref(),
            &ThroughputModel::default(),
        ) {
            Ok(regret) => regret,
            Err(err) => {
                report.fail(&format!("{} / {} / {}: {err}", e.name, v.scenario, spec.searcher));
                None
            }
        };
        if !sim {
            return;
        }
        self.regrets.extend(regret);
        self.n += 1;
        self.profile_usd += v.search.profile_cost.dollars();
        self.profile_h += v.search.profile_time.as_hours();
    }

    pub fn report(&self, report: &mut RunReport) {
        let n = self.n.max(1) as f64;
        report.set("profile_usd", self.profile_usd / n);
        report.set("profile_h", self.profile_h / n);
        report.set("regret", stats::geomean(&self.regrets));
    }
}

/// One set-up: build the mix (runners, search spaces, oracles, scenario
/// constraints) and plan each job once, cold.
fn setup_once(report: &mut RunReport) -> Result<JobMix, String> {
    let mix = JobMix::build(SpaceConfig::full())?;
    let mut totals = PlanTotals::default();
    for job in 0..mix.jobs.len() {
        let spec = Spec { job, scenario: 0, searcher: "heterbo" };
        let out = plan_untraced(&mix, spec, SETUP_SEED)?;
        totals.add(report, &mix, spec, &PlanView::from(&out), false);
    }
    Ok(mix)
}

pub fn run(opts: &Opts) -> Result<RunReport, String> {
    let mut report = RunReport::new(opts.trace);
    let me = std::process::id();
    let steal = StealClock::new()?;
    let (t0, steal0) = (Instant::now(), steal.secs()?);
    let mut setups = SetupClock::new(me);
    let mix = setups.time(|| setup_once(&mut report))?;
    let specs = if opts.quick { mix.quick_specs() } else { mix.round_specs() };

    let cpu0 = procstat::cpu_secs(me)?;
    let t_start = Instant::now();
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut op_s = 0.0;
    let mut totals = PlanTotals::default();
    // Traced runs: untraced and traced rounds alternate over the same
    // seeds, so traced ≡ untraced is checked plan by plan.
    let mut ledger = Ledger::new(t_start);
    let mut acc = TraceAcc::default();
    let (mut traced_s, mut traced_n) = (0.0, 0u64);
    let mut replays: Vec<(SearchSpace, Vec<Observation>, u64)> = Vec::new();
    let mut round = 0u64;
    loop {
        let mut prints = Vec::with_capacity(specs.len());
        for (k, &spec) in specs.iter().enumerate() {
            let seed = op_seed(opts.seed, round, k);
            let t = Instant::now();
            let out = plan_untraced(&mix, spec, seed)?;
            let dt = t.elapsed().as_secs_f64();
            op_s += dt;
            lat_ms.push(dt * 1e3);
            totals.add(
                &mut report,
                &mix,
                spec,
                &PlanView::from(&out),
                opts.quick || round < SIM_ROUNDS,
            );
            if opts.trace {
                prints.push(fingerprint(&out));
            }
        }
        report.attempted += specs.len() as u64;
        if opts.trace {
            report.attempted += specs.len() as u64;
            for (k, (&spec, print)) in specs.iter().zip(&prints).enumerate() {
                let seed = op_seed(opts.seed, round, k);
                ledger.set_op(traced_n);
                let e = &mix.jobs[spec.job];
                let p = Traced {
                    runner: mix.space.runner(seed),
                    searcher: spec.searcher,
                    seed,
                    job: &e.job,
                    scenario: &e.scenarios[spec.scenario],
                };
                let t = Instant::now();
                let out = plan_traced("op", p, &mut ledger, &mut acc)?;
                traced_s += t.elapsed().as_secs_f64();
                traced_n += 1;
                if fingerprint(&out) != *print {
                    report
                        .fail(&format!("traced plan differs from untraced: {spec:?} seed {seed}"));
                }
                if replays.len() < GP_REPLAY_PLANS {
                    let obs = out.search.steps.iter().map(|s| s.observation).collect();
                    replays.push((
                        mix.space.runner(seed).space(&mix.jobs[spec.job].job),
                        obs,
                        seed,
                    ));
                }
            }
        }
        round += 1;
        let min_rounds = if opts.trace { 1 } else { SIM_ROUNDS };
        if opts.quick || (round >= min_rounds && t_start.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
        if round.is_multiple_of(SETUP_EVERY) {
            setups.time(|| setup_once(&mut report))?;
        }
    }
    let wall = t_start.elapsed().as_secs_f64();
    let cpu = procstat::cpu_secs(me)? - cpu0 - setups.cpu_s;
    let ran = unstolen_share(&steal, steal0, t0.elapsed().as_secs_f64())?;
    eprintln!(
        "plan: {} rounds, {} plans in {wall:.2} s, setup {:?}, {:.1}% of host time stolen",
        round,
        lat_ms.len(),
        setups.summary(),
        (1.0 - ran) * 100.0
    );
    report.traced_ops = traced_n;

    if !opts.trace {
        let n = lat_ms.len() as f64;
        report.set("setup_s", stats::median(&setups.wall_s) * ran);
        report.set("plans_per_s", n / (op_s * ran));
        report.set("latency_p50_ms", stats::quantile(&lat_ms, 0.5) * ran);
        report.set("latency_p90_ms", stats::quantile(&lat_ms, 0.9) * ran);
        report.set("cpu_ms_per_plan", cpu * 1e3 / n);
        report.set("peak_rss_mb", procstat::peak_rss_mb(me)?);
        totals.report(&mut report);
        return Ok(report);
    }

    let by = ledger.by_name();
    print_self_table("plan", &by, traced_n);
    let path = opts.work_dir.join(format!("spans-plan-seed{}.jsonl", opts.seed));
    ledger.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report_layers(&mut report, &by, &acc, "op");
    let op = by.get("op").copied().unwrap_or_default();
    report.set("residual.share", stats::ratio(op.self_ns as f64, op.total_ns as f64));
    report.set("trace.overhead", stats::ratio(traced_s, op_s) - 1.0);
    gp_replay(&mut report, &replays);
    Ok(report)
}

/// Refit the GP surrogate on every observation prefix of some traced
/// plans, timing `Surrogate::fit` and `Surrogate::predict_batch` over the
/// whole candidate grid.
pub fn gp_replay(report: &mut RunReport, replays: &[(SearchSpace, Vec<Observation>, u64)]) {
    let (mut fit_ns, mut fits, mut pred_ns, mut preds, mut points) =
        (0u128, 0u64, 0u128, 0u64, 0u64);
    for (space, obs, seed) in replays {
        for k in 2..=obs.len() {
            let t = Instant::now();
            let fitted = Surrogate::fit(space, &obs[..k], *seed);
            fit_ns += t.elapsed().as_nanos();
            fits += 1;
            if let Some(s) = fitted {
                let t = Instant::now();
                let p = s.predict_batch(space, space.candidates());
                pred_ns += t.elapsed().as_nanos();
                preds += 1;
                points += std::hint::black_box(p).len() as u64;
            }
        }
    }
    let plans = replays.len().max(1) as f64;
    report.set("gp.fit_us", stats::ratio(fit_ns as f64 / 1e3, fits as f64));
    report.set("gp.predict_batch_us", stats::ratio(pred_ns as f64 / 1e3, preds as f64));
    report.set("gp.fits", fits as f64 / plans);
    report.set("gp.predicted_points", points as f64 / plans);
}
