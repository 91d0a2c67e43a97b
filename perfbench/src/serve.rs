//! The `serve` workload: `mlcd-serve` in its default mode — group-commit
//! journal, probe cache and grid cache on, one worker per core — driven
//! by a closed-loop TCP client. Each operation submits a session,
//! waits for its result, then reads back the result of a session the
//! retention cap has evicted, which the server serves from its journal.
//! It is the only path through the connection layer, the session queue,
//! journal writes and reads, and the probe cache.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use mlcd::observation::Observation;
use mlcd::prelude::{InstanceType, Scenario, ThroughputModel};
use mlcd::search::{searcher_by_name, TraceEvent};
use mlcd_service::journal::{
    is_journaled, journal_file, read_journal, reconcile_commit_log, JournalRecord, JOURNAL_FORMAT,
};
use mlcd_service::{Request, Response, ServiceStats, SessionResult, SubmitSpec};

use crate::check::{
    check_plan, check_probe_spend_cached, check_regret, check_served, check_totals, check_training,
    PlanView,
};
use crate::ledger::{print_self_table, Ledger};
use crate::mix::{op_seed, JobMix, SpaceConfig, Spec};
use crate::plan::{gp_replay, plan_traced, report_layers, TraceAcc, Traced};
use crate::procstat::{unstolen_share, StealClock};
use crate::{procstat, stats, Opts, RunReport};

/// Finished sessions the journal holds before the server starts.
const PREFILL: u64 = 2000;
/// Server start-ups per run before the closed loop and after it;
/// `setup_s` is the median of all of them.
const SETUP_REPS: (usize, usize) = (4, 3);
/// `--retain-cap`: terminal sessions the server keeps in memory.
const RETAIN: u64 = 8;
/// A served session is read back once this many later sessions have
/// completed past the retention cap — by then it is certainly evicted.
const EVICT_MARGIN: u64 = 8;
/// Rounds every run completes, however long it takes; the simulated
/// metrics cover the sessions of exactly these rounds, so they do not
/// depend on how fast the host is.
const SIM_ROUNDS: u64 = 40;
/// Seed of the pre-filled sessions' searches.
const PREFILL_SEED: u64 = 77;
/// Served sessions whose observation prefixes the GP replay refits.
const GP_REPLAY_PLANS: usize = 12;
/// Served sessions planned again in-process, layer by layer: every
/// `LAYER_REPLAY_STRIDE`-th op of the first round, so every job is among
/// them.
const LAYER_REPLAY_PLANS: usize = 12;
const LAYER_REPLAY_STRIDE: usize = 3;

/// One NDJSON connection to the server.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let writer = s.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn { reader: BufReader::new(s), writer, line: String::new() })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut out = serde_json::to_string(req).map_err(|e| format!("encode: {e}"))?;
        out.push('\n');
        self.writer.write_all(out.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        serde_json::from_str(self.line.trim())
            .map_err(|e| format!("decode {:?}: {e}", self.line.trim()))
    }

    fn result(&mut self, id: u64, wait: bool) -> Result<SessionResult, String> {
        match self.call(&Request::Result { id, wait })? {
            Response::ResultReady { result, .. } => Ok(result),
            other => Err(format!("result {id}: {other:?}")),
        }
    }

    fn stats(&mut self) -> Result<ServiceStats, String> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(format!("stats: {other:?}")),
        }
    }
}

/// A running `mlcd-serve` child. Dropping it kills and reaps the process.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start the server over `journal` and wait for its `listening on`
    /// banner.
    fn start(bin: &Path, journal: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--retain-cap", &RETAIN.to_string()])
            .arg("--journal-dir")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not piped")?;
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let banner = reader.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_string);
        match (banner, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr, _stdout: reader }),
            (r, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start: {r:?} {line:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to shut down and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        {
            let mut c = Conn::open(&self.addr)?;
            match c.call(&Request::Shutdown)? {
                Response::ShuttingDown => {}
                other => return Err(format!("shutdown: {other:?}")),
            }
        }
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The sessions' search space: the fleet presets' four instance types up
/// to 12 nodes — 48 candidates per job, a probe working set the shared
/// cache holds within a few rounds.
fn serve_space() -> SpaceConfig {
    SpaceConfig {
        types: Some(vec![
            InstanceType::C5Xlarge,
            InstanceType::C54xlarge,
            InstanceType::C5n4xlarge,
            InstanceType::P2Xlarge,
        ]),
        max_nodes: 12,
    }
}

fn submit_spec(mix: &JobMix, spec: Spec, seed: u64) -> SubmitSpec {
    let e = &mix.jobs[spec.job];
    let mut s = SubmitSpec::new(e.name, spec.searcher, seed);
    s.max_nodes = mix.space.max_nodes;
    s.types = mix.space.types.as_ref().map(|t| t.iter().map(|i| i.name().to_string()).collect());
    match e.scenarios[spec.scenario] {
        Scenario::FastestUnlimited => s,
        Scenario::CheapestWithDeadline(t) => s.with_deadline_hours(t.as_hours()),
        Scenario::FastestWithBudget(b) => s.with_budget(b.dollars()),
    }
}

/// Write `PREFILL` finished sessions straight into journal files — the
/// records a server writes for a completed session: header, journaled
/// events, `Completed`. Their results come from real searches (one per
/// job), so a read-back compares against a result computed here.
fn prefill(dir: &Path, mix: &JobMix) -> Result<Vec<SessionResult>, String> {
    let mut templates = Vec::new();
    for job in 0..mix.jobs.len() {
        let spec = Spec { job, scenario: 0, searcher: "heterbo" };
        let sub = submit_spec(mix, spec, PREFILL_SEED);
        let e = &mix.jobs[job];
        let searcher = searcher_by_name(spec.searcher, PREFILL_SEED).ok_or("unknown searcher")?;
        let (out, trace) =
            mix.space.runner(PREFILL_SEED).run_traced(searcher.as_ref(), &e.job, &e.scenarios[0]);
        let result = SessionResult::from(&out);
        let mut body = String::new();
        for (seq, event) in trace.events.into_iter().filter(is_journaled).enumerate() {
            let rec = JournalRecord::Event { seq: seq as u64, event };
            body.push_str(&serde_json::to_string(&rec).map_err(|e| e.to_string())?);
            body.push('\n');
        }
        let done = JournalRecord::Completed { result: result.clone() };
        body.push_str(&serde_json::to_string(&done).map_err(|e| e.to_string())?);
        body.push('\n');
        templates.push((sub, e.scenarios[0], body, result));
    }
    let mut results = Vec::with_capacity(PREFILL as usize);
    for id in 1..=PREFILL {
        let (sub, scenario, body, result) = &templates[(id as usize) % templates.len()];
        let header = JournalRecord::Header {
            format: JOURNAL_FORMAT,
            session: id,
            spec: sub.clone(),
            scenario: *scenario,
        };
        let mut text = serde_json::to_string(&header).map_err(|e| e.to_string())?;
        text.push('\n');
        text.push_str(body);
        let path = journal_file(dir, id);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        results.push(result.clone());
    }
    Ok(results)
}

/// The client's tallies.
#[derive(Default)]
struct Acc {
    lat_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    result_ms: Vec<f64>,
    read_ms: Vec<f64>,
    traced_ms: f64,
    traced_n: u64,
    untraced_ms: f64,
    untraced_n: u64,
    /// (session id, op index, spec, result), in completion order.
    results: Vec<(u64, u64, Spec, SessionResult)>,
    fails: Vec<String>,
}

impl Acc {
    /// A session the retention cap has certainly evicted, with the result
    /// expected back: the newest served session at least
    /// `RETAIN + EVICT_MARGIN` completions old, else a pre-filled one.
    fn evicted(&self, op: u64, prefilled: &[SessionResult]) -> (u64, SessionResult) {
        let old = (RETAIN + EVICT_MARGIN) as usize;
        if self.results.len() > old {
            let (id, _, _, result) = &self.results[self.results.len() - 1 - old];
            return (*id, result.clone());
        }
        let id = 1 + op % (PREFILL - RETAIN);
        (id, prefilled[(id - 1) as usize].clone())
    }
}

/// Rounds a run completes at least: the simulated metrics need
/// [`SIM_ROUNDS`]; a traced run needs round 1, the first traced one.
fn min_rounds(opts: &Opts) -> u64 {
    match (opts.trace, opts.quick) {
        (true, _) => 2,
        (false, true) => 1,
        (false, false) => SIM_ROUNDS,
    }
}

/// The closed loop over one connection: whole rounds of sessions until
/// `--seconds` have passed and [`min_rounds`] are done. Odd rounds are
/// traced in a traced run.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    mix: &JobMix,
    specs: &[Spec],
    prefilled: &[SessionResult],
    opts: &Opts,
    t_start: Instant,
    ledger: &mut Ledger,
) -> Result<Acc, String> {
    let mut acc = Acc::default();
    let per_round = specs.len() as u64;
    let mut round = 0u64;
    loop {
        for (k, &spec) in specs.iter().enumerate() {
            let op = round * per_round + k as u64;
            let seed = op_seed(opts.seed, round, k);
            let traced = opts.trace && round % 2 == 1;
            let sub = submit_spec(mix, spec, seed);
            let (old_id, expected) = acc.evicted(op, prefilled);
            ledger.set_op(op);
            let t0 = Instant::now();
            let span = traced.then(|| ledger.begin("op"));
            let s = traced.then(|| ledger.begin("net.submit"));
            let id = match conn.call(&Request::Submit(sub))? {
                Response::Submitted { id } => id,
                other => return Err(format!("submit: {other:?}")),
            };
            if let Some(s) = s {
                ledger.end(s);
            }
            let t1 = Instant::now();
            let s = traced.then(|| ledger.begin("net.result"));
            let result = conn.result(id, true)?;
            if let Some(s) = s {
                ledger.end(s);
            }
            let t2 = Instant::now();
            let s = traced.then(|| ledger.begin("net.read"));
            let reread = conn.result(old_id, false)?;
            if let Some(s) = s {
                ledger.end(s);
            }
            if let Some(span) = span {
                ledger.end(span);
            }
            let t3 = Instant::now();
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            acc.lat_ms.push(ms(t0, t3));
            acc.submit_ms.push(ms(t0, t1));
            acc.result_ms.push(ms(t1, t2));
            acc.read_ms.push(ms(t2, t3));
            if traced {
                acc.traced_ms += ms(t0, t3);
                acc.traced_n += 1;
            } else {
                acc.untraced_ms += ms(t0, t3);
                acc.untraced_n += 1;
            }
            if let Err(e) = check_served(&expected, &reread) {
                acc.fails.push(format!("session {old_id}: {e}"));
            }
            acc.results.push((id, op, spec, result));
        }
        round += 1;
        let timed_out = t_start.elapsed().as_secs_f64() >= opts.seconds;
        if round >= min_rounds(opts) && (opts.quick || timed_out) {
            return Ok(acc);
        }
    }
}

fn stats_delta(a: &ServiceStats, b: &ServiceStats) -> (f64, f64, f64, f64) {
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let events = |s: &ServiceStats| s.sim_events.iter().map(|c| c.dispatched).sum::<u64>();
    let cache = stats::ratio(
        d(a.cache_hits, b.cache_hits),
        d(a.cache_hits, b.cache_hits) + d(a.cache_misses, b.cache_misses),
    );
    let grid = stats::ratio(
        d(a.grid_hits, b.grid_hits),
        d(a.grid_hits, b.grid_hits) + d(a.grid_misses, b.grid_misses),
    );
    let per_group = stats::ratio(
        d(a.journal_records, b.journal_records),
        d(a.journal_groups, b.journal_groups),
    );
    (cache, grid, per_group, d(events(a), events(b)))
}

pub fn run(opts: &Opts) -> Result<RunReport, String> {
    let bin =
        opts.serve_bin.clone().ok_or("the serve workload needs --serve-bin PATH (mlcd-serve)")?;
    let work: PathBuf = opts.work_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let (pristine, journal) = (work.join("prefilled"), work.join("journal"));
    for dir in [&pristine, &journal] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let result = run_in(opts, &bin, &pristine, &journal);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Timed server start-ups over the pre-filled journal.
struct Restarts {
    wall_s: Vec<f64>,
    stolen_s: f64,
}

impl Restarts {
    /// Start the server over `journal` `n` times, timing each start up to
    /// its `listening on` banner, and shut it down again.
    fn run(
        &mut self,
        n: usize,
        bin: &Path,
        journal: &Path,
        steal: &StealClock,
    ) -> Result<(), String> {
        for _ in 0..n {
            let stolen0 = steal.secs()?;
            let t = Instant::now();
            let s = Server::start(bin, journal)?;
            self.wall_s.push(t.elapsed().as_secs_f64());
            self.stolen_s += steal.secs()? - stolen0;
            s.shutdown()?;
        }
        Ok(())
    }

    /// Share of the start-ups' time the benchmark's core ran.
    fn ran(&self) -> f64 {
        (1.0 - self.stolen_s / self.wall_s.iter().sum::<f64>()).clamp(0.0, 1.0)
    }
}

fn run_in(opts: &Opts, bin: &Path, pristine: &Path, journal: &Path) -> Result<RunReport, String> {
    let mut report = RunReport::new(opts.trace);
    let mix = JobMix::build(serve_space())?;
    let prefilled = prefill(pristine, &mix)?;
    for entry in std::fs::read_dir(pristine).map_err(|e| format!("{}: {e}", pristine.display()))? {
        let from = entry.map_err(|e| format!("{}: {e}", pristine.display()))?.path();
        let to = journal.join(from.file_name().ok_or("journal file without a name")?);
        std::fs::copy(&from, &to).map_err(|e| format!("{}: {e}", from.display()))?;
    }

    // Set-up: start the server over the pre-filled journal, which the run
    // never writes to; each start recovers every session. Some starts come
    // before the run and the rest after it, so a burst of host load around
    // one moment moves fewer of them. The run's own server serves a copy.
    let (before, after) = if opts.quick { (1, 0) } else { SETUP_REPS };
    let steal = StealClock::new()?;
    let mut restarts = Restarts { wall_s: Vec::new(), stolen_s: 0.0 };
    restarts.run(before, bin, pristine, &steal)?;
    let server = Server::start(bin, journal)?;
    let pid = server.pid();

    let specs = if opts.quick { mix.quick_specs() } else { mix.round_specs() };
    // Stats before and after the run, each over a short-lived connection,
    // so only the client's connection is open while the run measures.
    let stats0 = Conn::open(&server.addr)?.stats()?;
    let cpu0 = procstat::cpu_secs(pid)?;
    // One closed-loop client. With two, the two workers and the committer
    // saturate a 2-core host, and other load on it moved the sessions/s
    // and the latency tail of whole runs by 30–40%.
    let mut conn = Conn::open(&server.addr)?;
    let steal0 = steal.secs()?;
    let t_start = Instant::now();
    let mut ledger = Ledger::new(t_start);
    let acc = drive(&mut conn, &mix, &specs, &prefilled, opts, t_start, &mut ledger)?;
    let wall = t_start.elapsed().as_secs_f64();
    let ran = unstolen_share(&steal, steal0, wall)?;
    let cpu = procstat::cpu_secs(pid)? - cpu0;
    let rss = procstat::peak_rss_mb(pid)?;
    let stats1 = Conn::open(&server.addr)?.stats()?;
    drop(conn);
    server.shutdown()?;
    restarts.run(after, bin, pristine, &steal)?;
    let (setup_s, setup_ran) = (&restarts.wall_s, restarts.ran());

    for f in &acc.fails {
        report.fail(f);
    }

    // Every served result against its plan checks, and against the copy
    // the journal holds once the commit log is folded into the files. The
    // journal's provenance says which probes the shared cache served.
    reconcile_commit_log(journal).map_err(|e| format!("reconcile journal: {e}"))?;
    let mut provenance: Vec<Vec<bool>> = Vec::with_capacity(acc.results.len());
    let mut paid: BTreeMap<(usize, String), Vec<Observation>> = BTreeMap::new();
    for (id, _, spec, result) in &acc.results {
        let contents = read_journal(&journal_file(journal, *id))
            .map_err(|e| format!("session {id} journal: {e}"))?;
        match contents.terminal() {
            Some(JournalRecord::Completed { result: journaled }) => {
                if let Err(err) = check_served(result, journaled) {
                    report.fail(&format!("session {id}: {err}"));
                }
            }
            other => {
                report.fail(&format!("session {id}: journal holds no completed result: {other:?}"))
            }
        }
        let cached: Vec<bool> = contents
            .event_entries()
            .into_iter()
            .filter(|(e, _)| matches!(e, TraceEvent::InitProbe { .. } | TraceEvent::Probe { .. }))
            .map(|(_, hit)| hit)
            .collect();
        for (step, &hit) in result.search.steps.iter().zip(&cached) {
            if !hit {
                paid.entry((spec.job, step.observation.deployment.to_string()))
                    .or_default()
                    .push(step.observation);
            }
        }
        provenance.push(cached);
    }
    let truth = ThroughputModel::default();
    let (mut usd, mut hours, mut regrets) = (0.0, 0.0, Vec::new());
    let sim_ops = if opts.quick { u64::MAX } else { SIM_ROUNDS * specs.len() as u64 };
    let mut sim_n = 0u64;
    for ((id, op, spec, result), cached) in acc.results.iter().zip(&provenance) {
        let e = &mix.jobs[spec.job];
        let v = PlanView::from(result);
        let was_paid = |o: &Observation| {
            paid.get(&(spec.job, o.deployment.to_string())).is_some_and(|seen| seen.contains(o))
        };
        let checked = check_training(&v, &e.job, &truth)
            .and_then(|()| check_totals(&v))
            .and_then(|()| check_probe_spend_cached(&v, cached, was_paid))
            .and_then(|()| check_regret(&v, e.oracles[spec.scenario].as_ref()));
        let regret = match checked {
            Ok(r) => r,
            Err(err) => {
                report.fail(&format!("session {id} ({} / {}): {err}", e.name, spec.searcher));
                None
            }
        };
        if *op >= sim_ops {
            continue;
        }
        sim_n += 1;
        regrets.extend(regret);
        usd += result.search.profile_cost.dollars();
        hours += result.search.profile_time.as_hours();
    }
    let n = acc.results.len() as f64;
    report.attempted = acc.results.len() as u64;
    report.traced_ops = acc.traced_n;
    eprintln!(
        "serve: {} sessions in {wall:.2} s, setup {:?}, {:.1}% / {:.1}% of host time stolen",
        acc.results.len(),
        setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
        (1.0 - setup_ran) * 100.0,
        (1.0 - ran) * 100.0
    );

    if !opts.trace {
        report.set("setup_s", stats::median(setup_s) * setup_ran);
        report.set("plans_per_s", n / (wall * ran));
        report.set("latency_p50_ms", stats::quantile(&acc.lat_ms, 0.5) * ran);
        report.set("latency_p90_ms", stats::quantile(&acc.lat_ms, 0.9) * ran);
        report.set("cpu_ms_per_plan", cpu * 1e3 / n);
        report.set("peak_rss_mb", rss);
        report.set("profile_usd", usd / sim_n as f64);
        report.set("profile_h", hours / sim_n as f64);
        report.set("regret", stats::geomean(&regrets));
        return Ok(report);
    }

    let by = ledger.by_name();
    print_self_table("serve", &by, acc.traced_n);
    let path = opts.work_dir.join(format!("spans-serve-seed{}.jsonl", opts.seed));
    ledger.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let op = by.get("op").copied().unwrap_or_default();

    // The server's search, profiler and event engine are out of the
    // client's sight: some served sessions are planned again in-process,
    // with the same spec and seed but without the service's probe cache,
    // and timed layer by layer.
    let mut replay_ledger = Ledger::new(Instant::now());
    let mut layers = TraceAcc::default();
    let per_round = specs.len() as u64;
    for (_, op, spec, _) in acc.results.iter().step_by(LAYER_REPLAY_STRIDE).take(LAYER_REPLAY_PLANS)
    {
        let e = &mix.jobs[spec.job];
        let seed = op_seed(opts.seed, op / per_round, (op % per_round) as usize);
        let p = Traced {
            runner: mix.space.runner(seed),
            searcher: spec.searcher,
            seed,
            job: &e.job,
            scenario: &e.scenarios[spec.scenario],
        };
        replay_ledger.set_op(*op);
        let out = plan_traced("replay", p, &mut replay_ledger, &mut layers)?;
        let oracle = e.oracles[spec.scenario].as_ref();
        if let Err(err) = check_plan(&PlanView::from(&out), &e.job, oracle, &truth) {
            report.fail(&format!("replay of op {op} ({} / {}): {err}", e.name, spec.searcher));
        }
    }
    let replay_by = replay_ledger.by_name();
    print_self_table("serve, in-process replay", &replay_by, layers.plans());
    report_layers(&mut report, &replay_by, &layers, "replay");

    let (cache, grid, per_group, events) = stats_delta(&stats0, &stats1);
    report.set("net.submit_ms", stats::median(&acc.submit_ms));
    report.set("net.result_ms", stats::median(&acc.result_ms));
    report.set("net.read_ms", stats::median(&acc.read_ms));
    report.set("cache.hit_ratio", cache);
    report.set("grid.hit_ratio", grid);
    report.set("journal.records_per_group", per_group);
    report.set("journal.recover_ms_per_session", stats::median(setup_s) * 1e3 / PREFILL as f64);
    report.set("cloudsim.events", events / n);
    report.set("residual.share", stats::ratio(op.self_ns as f64, op.total_ns as f64));
    report.set(
        "trace.overhead",
        stats::ratio(
            acc.traced_ms / acc.traced_n.max(1) as f64,
            acc.untraced_ms / acc.untraced_n.max(1) as f64,
        ) - 1.0,
    );
    let replays: Vec<_> = acc
        .results
        .iter()
        .take(GP_REPLAY_PLANS)
        .map(|(_, _, spec, r)| {
            let space = mix.space.runner(PREFILL_SEED).space(&mix.jobs[spec.job].job);
            (space, r.search.steps.iter().map(|s| s.observation).collect(), PREFILL_SEED)
        })
        .collect();
    gp_replay(&mut report, &replays);
    Ok(report)
}
