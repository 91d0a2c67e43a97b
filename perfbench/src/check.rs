//! Output checks. Every check compares the program's output with a
//! computation made here, apart from the program, or with a property the
//! method must have — never with a stored copy of an earlier output.

use mlcd::observation::{Observation, SearchOutcome};
use mlcd::prelude::{
    DeploymentPlan, ExperimentOutcome, ExperimentRunner, Money, Optimum, Scenario, SimDuration,
    ThroughputModel, TrainingJob,
};
use mlcd_cloudsim::ProvisioningModel;
use mlcd_fleet::{FleetJob, FleetOutcome};
use mlcd_service::SessionResult;

/// AWS's per-second billing minimum, as the simulated provider bills.
const BILLING_MINIMUM_S: f64 = 60.0;

/// The fields of one planning result the checks read, whether it came
/// from `ExperimentRunner` in-process, from a fleet tenant, or over the
/// service's wire protocol.
#[derive(Debug, Clone)]
pub struct PlanView {
    pub scenario: Scenario,
    pub plan: Option<DeploymentPlan>,
    pub search: SearchOutcome,
    pub train_time: SimDuration,
    pub train_cost: Money,
    pub total_time: SimDuration,
    pub total_cost: Money,
    pub satisfied: bool,
}

impl From<&ExperimentOutcome> for PlanView {
    fn from(o: &ExperimentOutcome) -> PlanView {
        PlanView {
            scenario: o.scenario,
            plan: o.plan,
            search: o.search.clone(),
            train_time: o.train_time,
            train_cost: o.train_cost,
            total_time: o.total_time,
            total_cost: o.total_cost,
            satisfied: o.satisfied,
        }
    }
}

impl From<&SessionResult> for PlanView {
    fn from(o: &SessionResult) -> PlanView {
        PlanView {
            scenario: o.scenario,
            plan: o.plan,
            search: o.search.clone(),
            train_time: o.train_time,
            train_cost: o.train_cost,
            total_time: o.total_time,
            total_cost: o.total_cost,
            satisfied: o.satisfied,
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Training time and cost against the pure training figures: the job's
/// samples over `ThroughputModel::throughput`, billed at the catalog
/// price. The run may take longer only by provisioning — at most the
/// provisioning model's deterministic delay stretched by its full jitter
/// — and its cost must be exactly its billed duration at list price.
/// A plan with no deployment trains nothing.
pub fn check_training(
    v: &PlanView,
    job: &TrainingJob,
    truth: &ThroughputModel,
) -> Result<(), String> {
    let Some(plan) = v.plan else {
        if v.train_time.as_secs() != 0.0 || v.train_cost.dollars() != 0.0 {
            return Err("no plan, yet training time or cost is non-zero".into());
        }
        return Ok(());
    };
    let d = plan.deployment;
    let speed = truth
        .throughput(job, d.itype, d.n)
        .map_err(|e| format!("planned deployment {d} is infeasible: {e}"))?;
    let pure = job.total_samples() / speed;
    let model = ProvisioningModel::default();
    let allowance = model.deterministic_delay(d.itype, d.n).as_secs() * (1.0 + model.jitter);
    let t = v.train_time.as_secs();
    if t < pure * (1.0 - 1e-12) || t > pure + allowance + 1e-6 {
        return Err(format!(
            "training {d} took {t:.3} s; pure training is {pure:.3} s plus at most {allowance:.3} s of provisioning"
        ));
    }
    let rate = f64::from(d.n) * d.itype.hourly_usd() / 3600.0;
    let billed = t.max(BILLING_MINIMUM_S) * rate;
    let cost = v.train_cost.dollars();
    if !close(cost, billed) || cost < pure * rate * (1.0 - 1e-12) {
        return Err(format!(
            "training {d} cost ${cost:.6}; {t:.3} s at list price bills ${billed:.6}"
        ));
    }
    Ok(())
}

/// Total equals profiling plus training, in time and in money.
pub fn check_totals(v: &PlanView) -> Result<(), String> {
    let t = v.search.profile_time.as_secs() + v.train_time.as_secs();
    if !close(v.total_time.as_secs(), t) {
        return Err(format!(
            "total time {} s ≠ profiling + training {t} s",
            v.total_time.as_secs()
        ));
    }
    let c = v.search.profile_cost.dollars() + v.train_cost.dollars();
    if !close(v.total_cost.dollars(), c) {
        return Err(format!("total cost ${} ≠ profiling + training ${c}", v.total_cost.dollars()));
    }
    Ok(())
}

/// The observations' costs sum to the profiling spend.
pub fn check_probe_spend(v: &PlanView) -> Result<(), String> {
    let sum: f64 = v.search.steps.iter().map(|s| s.observation.profile_cost.dollars()).sum();
    if !close(sum, v.search.profile_cost.dollars()) {
        return Err(format!(
            "observations cost ${sum} in sum but profiling spent ${}",
            v.search.profile_cost.dollars()
        ));
    }
    Ok(())
}

/// The probe-spend check for results whose probes the service's shared
/// cache may have served. A cache hit is free — it adds nothing to the
/// session's spend — yet the observation keeps the cost of the probe that
/// first paid for it. So: the observations the session itself paid for
/// (per the journal's provenance, `cached[i]` for step `i`) sum to its
/// profiling spend, and every cached observation is bit-identical to one
/// that some session of the run did pay for (`was_paid`).
pub fn check_probe_spend_cached(
    v: &PlanView,
    cached: &[bool],
    was_paid: impl Fn(&Observation) -> bool,
) -> Result<(), String> {
    if cached.len() != v.search.steps.len() {
        return Err(format!(
            "journal holds {} probes for {} steps",
            cached.len(),
            v.search.steps.len()
        ));
    }
    let mut sum = 0.0;
    for (step, &hit) in v.search.steps.iter().zip(cached) {
        if !hit {
            sum += step.observation.profile_cost.dollars();
        } else if !was_paid(&step.observation) {
            return Err(format!(
                "cached probe of {} matches no probe any session paid for",
                step.observation.deployment
            ));
        }
    }
    if !close(sum, v.search.profile_cost.dollars()) {
        return Err(format!(
            "paid observations cost ${sum} in sum but profiling spent ${}",
            v.search.profile_cost.dollars()
        ));
    }
    Ok(())
}

/// The plan objective over the oracle's: total hours, or total dollars
/// for the deadline scenario. `None` without a plan or an oracle. A plan
/// that meets its constraint — recomputed here from its totals, and the
/// reported `satisfied` flag must agree — can never beat the oracle,
/// which plans with free, perfect knowledge.
pub fn check_regret(v: &PlanView, oracle: Option<&Optimum>) -> Result<Option<f64>, String> {
    let meets = v.plan.is_some() && v.scenario.satisfied_by(v.total_time, v.total_cost);
    if meets != v.satisfied {
        return Err(format!("satisfied={} but the totals say {meets}", v.satisfied));
    }
    let (Some(_), Some(opt)) = (v.plan, oracle) else { return Ok(None) };
    let regret = match v.scenario {
        Scenario::CheapestWithDeadline(_) => v.total_cost.dollars() / opt.train_cost.dollars(),
        _ => v.total_time.as_secs() / opt.train_time.as_secs(),
    };
    if !(regret.is_finite() && regret > 0.0) {
        return Err(format!("regret {regret} is not a positive ratio"));
    }
    if meets && regret < 1.0 - 1e-12 {
        return Err(format!("a plan meeting its constraint beats the oracle: regret {regret}"));
    }
    Ok(Some(regret))
}

/// Every plan check; returns the plan's regret when it has one.
pub fn check_plan(
    v: &PlanView,
    job: &TrainingJob,
    oracle: Option<&Optimum>,
    truth: &ThroughputModel,
) -> Result<Option<f64>, String> {
    check_training(v, job, truth)?;
    check_totals(v)?;
    check_probe_spend(v)?;
    check_regret(v, oracle)
}

/// A served result equals the copy read back from the journal.
pub fn check_served(served: &SessionResult, journaled: &SessionResult) -> Result<(), String> {
    if served == journaled {
        return Ok(());
    }
    let what = if served.total_cost != journaled.total_cost {
        "total cost"
    } else if served.total_time != journaled.total_time {
        "total time"
    } else if served.search != journaled.search {
        "search outcome"
    } else if served.plan != journaled.plan {
        "plan"
    } else {
        "result"
    };
    Err(format!("served {what} differs from the journaled copy"))
}

/// Every job of a fleet run has an outcome, arrived when its scenario
/// says, finishes after it arrives, and the per-job costs sum to the
/// fleet total.
pub fn check_fleet(out: &FleetOutcome, jobs: &[FleetJob]) -> Result<(), String> {
    if out.jobs.len() != jobs.len() || out.agg.jobs as usize != jobs.len() {
        return Err(format!("{} job outcomes for {} jobs", out.jobs.len(), jobs.len()));
    }
    let mut sum = 0.0;
    for (j, spec) in out.jobs.iter().zip(jobs) {
        if j.id != spec.id || j.arrived_at != spec.arrival {
            return Err(format!("job {} does not match scenario job {}", j.id, spec.id));
        }
        let Some(o) = &j.outcome else {
            return Err(format!("job {} has no outcome", j.id));
        };
        if j.completed_at < j.arrived_at {
            return Err(format!("job {} finished before it arrived", j.id));
        }
        sum += o.total_cost.dollars();
    }
    if out.agg.completed as usize != jobs.len() {
        return Err(format!("{} of {} jobs completed", out.agg.completed, jobs.len()));
    }
    if !close(sum, out.agg.total_cost.dollars()) {
        return Err(format!(
            "per-job costs sum to ${sum}, fleet total is ${}",
            out.agg.total_cost.dollars()
        ));
    }
    Ok(())
}

/// One configuration run twice gives one digest.
pub fn check_digest(first: &str, again: &str) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err("the same fleet configuration gave two different digests".into())
    }
}

/// Feed every check one corrupted copy of a real output and require it
/// to be rejected (while the uncorrupted output passes). Returns the
/// number of corruptions tried.
pub fn self_test() -> Result<usize, String> {
    use mlcd::search::searcher_by_name;

    let mix = crate::mix::JobMix::build(crate::mix::SpaceConfig::full())?;
    let truth = ThroughputModel::default();
    let entry = &mix.jobs[1];
    let runner = ExperimentRunner::new(7);
    let searcher = searcher_by_name("heterbo", 7).ok_or("no heterbo")?;
    let out = runner.run(searcher.as_ref(), &entry.job, &entry.scenarios[2]);
    let oracle = entry.oracles[2].as_ref();
    let good = PlanView::from(&out);
    check_plan(&good, &entry.job, oracle, &truth)
        .map_err(|e| format!("real plan rejected: {e}"))?;
    let plan_checks: Vec<(&str, PlanView)> = vec![
        ("training cost off by a cent", {
            let mut v = good.clone();
            v.train_cost += Money::from_dollars(0.01);
            v
        }),
        ("training shorter than pure training", {
            let mut v = good.clone();
            v.train_time = SimDuration::from_secs(v.train_time.as_secs() * 0.9);
            v
        }),
        ("total cost off by a cent", {
            let mut v = good.clone();
            v.total_cost += Money::from_dollars(0.01);
            v
        }),
        ("one probe's cost off by a cent", {
            let mut v = good.clone();
            let step = v.search.steps.first_mut().ok_or("plan made no probe")?;
            step.observation.profile_cost += Money::from_dollars(0.01);
            v
        }),
        ("satisfied flag flipped", {
            let mut v = good.clone();
            v.satisfied = !v.satisfied;
            v
        }),
    ];
    let mut n = 0;
    for (what, v) in &plan_checks {
        n += 1;
        if check_plan(v, &entry.job, oracle, &truth).is_ok() {
            return Err(format!("plan check accepted: {what}"));
        }
    }
    // A plan meeting its constraint that beats the oracle: halve the
    // objective of a real satisfied plan below the oracle's.
    let opt = oracle.ok_or("budget scenario has no oracle")?;
    let mut v = good.clone();
    v.total_time = SimDuration::from_secs(opt.train_time.as_secs() * 0.5);
    v.total_cost = Money::from_dollars(0.0);
    v.satisfied = true;
    n += 1;
    if check_regret(&v, Some(opt)).is_ok() {
        return Err("regret check accepted a plan beating the oracle".into());
    }

    // Cache provenance: step 0 served by the cache, so the session's
    // spend excludes it. Accepted when some session paid for exactly that
    // observation, rejected when none did.
    let mut v = good.clone();
    let first = v.search.steps.first().ok_or("plan made no probe")?.observation;
    v.search.profile_cost = v.search.profile_cost - first.profile_cost;
    let cached: Vec<bool> = (0..v.search.steps.len()).map(|i| i == 0).collect();
    check_probe_spend_cached(&v, &cached, |o| *o == first)
        .map_err(|e| format!("cache-served plan rejected: {e}"))?;
    n += 1;
    if check_probe_spend_cached(&v, &cached, |_| false).is_ok() {
        return Err("probe-spend check accepted a cached probe no session paid for".into());
    }

    // Served vs journaled.
    let served = SessionResult::from(&out);
    check_served(&served, &served.clone())?;
    let mut journaled = served.clone();
    journaled.total_cost += Money::from_dollars(0.01);
    n += 1;
    if check_served(&served, &journaled).is_ok() {
        return Err("served check accepted a result differing from its journaled copy".into());
    }

    // Fleet outcomes.
    let (scenario, fleet_out) = crate::fleet::run_config(2, "fairshare", crate::fleet::POOL[0])?;
    let jobs = scenario.jobs();
    check_fleet(&fleet_out, &jobs).map_err(|e| format!("real fleet run rejected: {e}"))?;
    let mut missing = fleet_out.clone();
    missing.jobs.pop();
    let mut early = fleet_out.clone();
    let last = early.jobs.len() - 1;
    early.jobs[last].completed_at = mlcd::prelude::SimTime::ZERO;
    let mut costly = fleet_out.clone();
    if let Some(o) = costly.jobs[0].outcome.as_mut() {
        o.total_cost += Money::from_dollars(0.01);
    }
    let mut no_outcome = fleet_out.clone();
    no_outcome.jobs[1].outcome = None;
    n += 4;
    if check_fleet(&missing, &jobs).is_ok() {
        return Err("fleet check accepted a run missing a job".into());
    }
    if check_fleet(&early, &jobs).is_ok() {
        return Err("fleet check accepted a job finishing before it arrived".into());
    }
    if check_fleet(&costly, &jobs).is_ok() {
        return Err("fleet check accepted per-job costs off the total by a cent".into());
    }
    if check_fleet(&no_outcome, &jobs).is_ok() {
        return Err("fleet check accepted a job without an outcome".into());
    }
    let digest = fleet_out.digest();
    n += 1;
    if check_digest(&digest, &costly.digest()).is_ok() {
        return Err("digest check accepted two different outcomes".into());
    }
    Ok(n)
}
