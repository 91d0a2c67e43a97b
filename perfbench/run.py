#!/usr/bin/env python3
"""Entry point of the MLCD benchmark.

    python3 perfbench/run.py --workload plan|serve|fleet --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick
    python3 perfbench/run.py sweep --workloads plan,serve,fleet --seeds 1-10 --out set.jsonl
    python3 perfbench/run.py compare set-a.jsonl set-b.jsonl

Run from the repository root. The first two forms build the benchmark and
`mlcd-serve` from source (release profile, into `$CARGO_TARGET_DIR`, else
`perfbench/target`), then run the benchmark binary; its last stdout line is
the result object. `sweep` runs the benchmark once per workload and seed and
appends each result to a JSON Lines file; `compare` reads two such files and
prints, per workload and metric, each set's median and quartiles and whether
the two agree within the metric's bound from BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR")
    if t:
        return Path(t) if os.path.isabs(t) else Path.cwd() / t
    return HERE / "target"


def build():
    """Build the benchmark and the service binary; exit on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "-p", "perfbench", "-p", "mlcd-service",
        "--bin", "perfbench", "--bin", "mlcd-serve",
    ]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {r.returncode})")
    release = target_dir() / "release"
    return release / "perfbench", release / "mlcd-serve"


def pin():
    """Start the benchmark process, and so `mlcd-serve` and the fleet's
    fault children, on one core.

    Every workload is a closed loop with one thread at work at a time: one
    plan, one session in flight, one fleet tenant behind the handoff. A
    second core only turns each handoff into a wake-up of an idle core, and
    on a virtual machine shared with other tenants that wake-up waits for
    the host: unpinned `serve` runs lost 14-28% of the machine's time to
    the host and planned 34-55 sessions/s, pinned ones 5-9% and 53-60.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def run_bench(args):
    """Build, run the benchmark binary with `args`, pass its output on."""
    bench, serve = build()
    cmd = [str(bench), *args, "--serve-bin", str(serve), "--work-dir", ".perfbench"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       preexec_fn=pin())
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def option(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
        sys.exit(f"perfbench: {name} needs a value")
    return default


def sweep(args):
    workloads = option(args, "--workloads", "plan,serve,fleet").split(",")
    seeds = parse_seeds(option(args, "--seeds", "1-10"))
    seconds = option(args, "--seconds", str(json.loads(BENCHMARK_JSON.read_text())["run_seconds"]))
    trace = option(args, "--trace", "0")
    out = option(args, "--out")
    if not out:
        sys.exit("perfbench: sweep needs --out FILE")
    bench, serve = build()
    with open(out, "a") as f:
        for w in workloads:
            for s in seeds:
                cmd = [str(bench), "--workload", w, "--seed", str(s), "--seconds", seconds,
                       "--trace", trace, "--serve-bin", str(serve), "--work-dir", ".perfbench"]
                r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin())
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    sys.exit(f"perfbench: {w} seed {s} failed (exit {r.returncode})")
                res = json.loads(lines[-1])
                f.write(json.dumps({"workload": w, "seed": s, "trace": int(trace), "result": res}) + "\n")
                f.flush()
                print(f"{w} seed {s}: correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']}", file=sys.stderr)
    return 0


def load_set(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(args):
    if len(args) != 2:
        sys.exit("usage: run.py compare SET_A SET_B")
    spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_set(args[0]), load_set(args[1])
    ok = True
    print(f"{'workload':<8} {'metric':<16} {'A median [q1, q3] spread':>40} "
          f"{'B median [q1, q3] spread':>40} {'B vs A':>8} {'bound':>6}  verdict")
    for w in sorted(set(a) & set(b)):
        for name, m in metrics.items():
            va = [r["metrics"][name]["value"] for r in a[w] if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b[w] if name in r["metrics"]]
            if len(va) < 2 or len(vb) < 2:
                print(f"{w:<8} {name:<16} too few runs")
                ok = False
                continue
            ma, qa1, qa3, sa = summary(va)
            mb, qb1, qb3, sb = summary(vb)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            bound = m["bound"]
            verdict = []
            if worse > bound:
                verdict.append("worse")
            if sa > bound or sb > bound:
                verdict.append("noisy")
            ok &= not verdict
            print(f"{w:<8} {name:<16} {ma:>14.6g} [{qa1:.6g}, {qa3:.6g}] {sa:>6.1%} "
                  f"{mb:>14.6g} [{qb1:.6g}, {qb3:.6g}] {sb:>6.1%} {change:>+8.2%} {bound:>6.0%}  "
                  f"{' '.join(verdict) or 'agree'}")
        fa = {(r["failed"], r["attempted"]) for r in a[w]}
        fb = {(r["failed"], r["attempted"]) for r in b[w]}
        share_a = {f * 1.0 / n for f, n in fa}
        share_b = {f * 1.0 / n for f, n in fb}
        same = len(share_a | share_b) == 1
        correct = all(r["correct"] for r in a[w] + b[w])
        ok &= same and correct
        print(f"{w:<8} failed share A {sorted(share_a)} B {sorted(share_b)}: "
              f"{'same' if same else 'DIFFERENT'}; every run correct: {correct}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        return compare(args[1:])
    if args[:1] == ["sweep"]:
        return sweep(args[1:])
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
