//! CPU time and peak memory of a process, and time the host took away
//! from the benchmark's cores, read from `/proc`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of `pid` (all its threads, not its children).
pub fn cpu_secs(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: no `)`"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC)
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) of `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Set-up repetitions spread through a run: the wall time of each, and
/// the CPU time of `pid` they took, which the run's CPU figure leaves out.
/// Spread over the run, their median sees the same host load as the
/// run's own measurements, not a burst in its first second.
pub struct SetupClock {
    pid: u32,
    pub wall_s: Vec<f64>,
    pub cpu_s: f64,
}

impl SetupClock {
    pub fn new(pid: u32) -> SetupClock {
        SetupClock { pid, wall_s: Vec::new(), cpu_s: 0.0 }
    }

    /// Run and time one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let cpu0 = cpu_secs(self.pid)?;
        let t = std::time::Instant::now();
        let out = f()?;
        self.wall_s.push(t.elapsed().as_secs_f64());
        self.cpu_s += cpu_secs(self.pid)? - cpu0;
        Ok(out)
    }

    /// The set-up times as printed in a run's summary line.
    pub fn summary(&self) -> Vec<String> {
        self.wall_s.iter().map(|s| format!("{s:.3}")).collect()
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,3`).
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or_else(|| format!("{path}: no Cpus_allowed_list line"))?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let parse = |x: &str| x.parse::<usize>().map_err(|e| format!("{path}: {part}: {e}"));
        cpus.extend(parse(lo)?..=parse(hi)?);
    }
    Ok(cpus)
}

/// Time a virtual machine's host ran something else while one of the
/// benchmark's CPUs had work (`steal` in `/proc/stat`), summed over the
/// CPUs the benchmark may run on. `run.py` pins the benchmark to one CPU,
/// so every stolen second is one its closed loop waited for.
pub struct StealClock {
    cpus: Vec<usize>,
}

impl StealClock {
    pub fn new() -> Result<StealClock, String> {
        Ok(StealClock { cpus: allowed_cpus()? })
    }

    /// Stolen seconds so far.
    pub fn secs(&self) -> Result<f64, String> {
        let path = "/proc/stat";
        let stat = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut ticks = 0u64;
        for cpu in &self.cpus {
            let name = format!("cpu{cpu}");
            let line = stat
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                .ok_or_else(|| format!("{path}: no {name} line"))?;
            // user nice system idle iowait irq softirq steal ...
            ticks += line
                .split_whitespace()
                .nth(8)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("{path}: {name}: no steal field"))?;
        }
        Ok(ticks as f64 / TICKS_PER_SEC)
    }
}

/// Share of the `wall_s` seconds since `steal0` that the benchmark's CPUs
/// actually ran: host-time metrics are scaled by it, so they measure the
/// program and not the host's other tenants.
pub fn unstolen_share(clock: &StealClock, steal0: f64, wall_s: f64) -> Result<f64, String> {
    let stolen = clock.secs()? - steal0;
    Ok((1.0 - stolen / wall_s).clamp(0.0, 1.0))
}
