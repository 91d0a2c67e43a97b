//! The planning mix the `plan` and `serve` workloads share: the six
//! paper-evaluation jobs, the three §III-A scenarios with per-job
//! constraints derived from the ground-truth optimum, and the two HeterBO
//! searchers.

use mlcd::prelude::{
    ExperimentRunner, InstanceType, Money, Optimum, Scenario, SimDuration, ThroughputModel,
    TrainingJob,
};

/// The paper's evaluation jobs (AlexNet, ResNet, Inception, Char-RNN, and
/// BERT on TensorFlow and on MXNet), as `TrainingJob::by_name` presets.
pub const JOBS: [&str; 6] = [
    "alexnet-cifar10",
    "resnet-cifar10",
    "inception-imagenet",
    "char-rnn",
    "bert-tf",
    "bert-mxnet",
];

/// The searchers every (job, scenario) pair is planned with.
pub const SEARCHERS: [&str; 2] = ["heterbo", "heterbo-parallel"];

/// Splitmix64 finaliser: derives independent seeds from `(seed, index)`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of round `round` of a run started with `--seed seed`. Kept below
/// 2^53 so it survives the JSON wire protocol exactly.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    mix64(seed ^ mix64(round.wrapping_add(1))) >> 11
}

/// Seed of op `k` of round `round`: every plan of a round gets its own,
/// so the two searchers of one (job, scenario) pair are independent
/// samples.
pub fn op_seed(seed: u64, round: u64, k: usize) -> u64 {
    round_seed(seed, round.wrapping_mul(1 << 16).wrapping_add(k as u64))
}

/// One job of the mix: its three scenarios and their oracles.
pub struct JobEntry {
    pub name: &'static str,
    pub job: TrainingJob,
    /// Unlimited, deadline, budget — in that order.
    pub scenarios: [Scenario; 3],
    /// `ExperimentRunner::optimum` per scenario.
    pub oracles: [Option<Optimum>; 3],
}

/// One planning request of a round.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub job: usize,
    pub scenario: usize,
    pub searcher: &'static str,
}

/// The search space every plan of a mix runs over.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// Instance types; `None` is the whole catalog.
    pub types: Option<Vec<InstanceType>>,
    /// Scale-out cap.
    pub max_nodes: u32,
}

impl SpaceConfig {
    /// `mlcd search`'s default: every instance type, up to 50 nodes.
    pub fn full() -> SpaceConfig {
        SpaceConfig { types: None, max_nodes: 50 }
    }

    /// The runner `ExperimentRunner::run` plans with under this space.
    pub fn runner(&self, seed: u64) -> ExperimentRunner {
        let r = ExperimentRunner::new(seed).with_max_nodes(self.max_nodes);
        match &self.types {
            Some(t) => r.with_types(t.clone()),
            None => r,
        }
    }
}

/// The whole mix with its oracles.
pub struct JobMix {
    pub jobs: Vec<JobEntry>,
    pub space: SpaceConfig,
}

impl JobMix {
    /// Build the mix over `space`. The deadline sits between the fastest
    /// and the cheapest deployment's training time, with two hours for
    /// profiling; the budget sits between the cheapest and the fastest
    /// deployment's training cost, with $5 for profiling.
    pub fn build(space: SpaceConfig) -> Result<JobMix, String> {
        let runner = space.runner(0);
        let truth = ThroughputModel::default();
        let mut jobs = Vec::with_capacity(JOBS.len());
        for name in JOBS {
            let job = TrainingJob::by_name(name).ok_or_else(|| format!("unknown job {name}"))?;
            let fastest = runner
                .optimum(&job, &Scenario::FastestUnlimited)
                .ok_or_else(|| format!("{name}: no feasible deployment"))?;
            let space = runner.space(&job);
            let mut cheapest: Option<(f64, f64)> = None;
            for d in space.candidates() {
                let Ok(speed) = truth.throughput(&job, d.itype, d.n) else { continue };
                let t = Scenario::training_time(job.total_samples(), speed);
                let c = d.cost_for(t).dollars();
                if cheapest.is_none_or(|(best, _)| c < best) {
                    cheapest = Some((c, t.as_hours()));
                }
            }
            let (c_min, t_cheap) = cheapest.ok_or_else(|| format!("{name}: empty space"))?;
            let t_fast = fastest.train_time.as_hours();
            let c_fast = fastest.train_cost.dollars();
            let deadline_h = (t_fast * t_cheap).sqrt().max(1.5 * t_fast) + 2.0;
            let budget_usd = (c_fast * c_min).sqrt() * 1.2 + 5.0;
            let scenarios = [
                Scenario::FastestUnlimited,
                Scenario::CheapestWithDeadline(SimDuration::from_hours(deadline_h)),
                Scenario::FastestWithBudget(Money::from_dollars(budget_usd)),
            ];
            let oracles = scenarios.map(|s| runner.optimum(&job, &s));
            jobs.push(JobEntry { name, job, scenarios, oracles });
        }
        Ok(JobMix { jobs, space })
    }

    /// One round: every job × scenario × searcher.
    pub fn round_specs(&self) -> Vec<Spec> {
        let mut specs = Vec::with_capacity(self.jobs.len() * 3 * SEARCHERS.len());
        for job in 0..self.jobs.len() {
            for scenario in 0..3 {
                for searcher in SEARCHERS {
                    specs.push(Spec { job, scenario, searcher });
                }
            }
        }
        specs
    }

    /// The quick-mode round: one spec per job, covering every scenario
    /// and both searchers.
    pub fn quick_specs(&self) -> Vec<Spec> {
        (0..self.jobs.len())
            .map(|job| Spec { job, scenario: job % 3, searcher: SEARCHERS[job % 2] })
            .collect()
    }
}
