"""smoothlab benchmark: one workload, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every round runs in a fresh interpreter
(bench/worker.py, or the CLI itself for cli_quick), so no module-level
cache of smoothlab survives from one round to the next.  Rounds repeat
until S seconds have passed; at least one round always runs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of SETUP_PROBES fresh set-ups), round wall time and peak resident
memory (medians over rounds), and the median operation time (Harrell-Davis
estimate over the operations of a round, each taken as its median over the
rounds, so that the estimate does not depend on the number of rounds).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, with the tracing overhead as the difference of
the two round times.  The last line of stdout is the JSON result; a
summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = workloads.OUT_DIR
#: fresh set-ups timed per run, half before the rounds and half after
SETUP_PROBES = 8
#: the whole run must end within 180 s; stop cleanly before that
RUN_LIMIT_S = 170

_children: list = []


class BenchError(RuntimeError):
    pass


def _wait(proc) -> int:
    """Reap proc and return its peak resident set in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(proc)
    return usage.ru_maxrss


def _spawn(cmd, **kw):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, **kw)
    _children.append(proc)
    return proc


def run_worker(workload: str, seed: int, *flags) -> dict:
    t0 = time.perf_counter()
    proc = _spawn([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                   "--workload", workload, "--seed", str(seed), *flags])
    first = proc.stdout.readline()
    ready = time.perf_counter() - t0
    rest = proc.stdout.read()
    rss = _wait(proc)
    if first.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker {workload} {' '.join(flags)} exited with {proc.returncode}")
    out = json.loads(rest.splitlines()[-1]) if rest.strip() else {}
    out.update(ready_s=ready, rss_kb=rss)
    return out


def run_cli(argv) -> tuple:
    """One `smoothlab` process: (seconds, exit code, report text, peak KiB)."""
    src = os.path.join(os.getcwd(), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    with open(os.path.join(OUT_DIR, "cli-stderr.txt"), "w+b") as err:
        t0 = time.perf_counter()
        proc = _spawn([sys.executable, "-m", "smoothlab.cli", *argv], stderr=err, env=env)
        text = proc.stdout.read().decode()
        rss = _wait(proc)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return seconds, proc.returncode, text, rss


def cli_round(seed: int, reference: str, traced: bool) -> dict:
    rnd = {"op_s": [], "failed": {}, "rss_kb": 0, "layers": {}}
    for k in range(workloads.CLI_ROUND):
        label = f"{' '.join(workloads.CLI_ARGS)} #{k}"
        if traced:
            w = run_worker("cli_quick", seed, "--trace",
                           "--reference", os.path.join(OUT_DIR, "cli-reference.json"))
            # spawn to the end of cli.main, as the untraced side is timed;
            # the worker's reduction, check and span dump come after
            seconds, rss = w["ready_s"] + w["wall_s"], w["rss_kb"]
            rnd["failed"].update({label: msg for msg in w["failed"].values()})
            if w["check_error"]:
                raise BenchError(w["check_error"])
            for name, value in w["layers"].items():
                rnd["layers"][name] = rnd["layers"].get(name, 0) + value
            rnd["top_layers"] = w["top_layers"]
        else:
            seconds, code, text, rss = run_cli(workloads.CLI_ARGS)
            why = workloads.check_cli_output(code, text, reference)
            if why:
                rnd["failed"][label] = why
        rnd["op_s"].append(seconds)
        rnd["rss_kb"] = max(rnd["rss_kb"], rss)
    rnd["wall_s"] = sum(rnd["op_s"])
    return rnd


def one_round(workload: str, seed: int, reference: str | None, traced: bool) -> dict:
    if workload == "cli_quick":
        return cli_round(seed, reference, traced)
    rnd = run_worker(workload, seed, *(["--trace"] if traced else []))
    if rnd["check_error"]:
        raise BenchError(rnd["check_error"])
    return rnd


def cli_reference() -> str:
    _, code, text, _ = run_cli(workloads.CLI_REFERENCE_ARGS)
    why = workloads.check_cli_output(code, text, None)
    if why:
        raise BenchError(f"--threads 1 reference invocation: {why}")
    with open(os.path.join(OUT_DIR, "cli-reference.json"), "w") as fh:
        fh.write(text)
    return text


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run the rounds; returns (metrics by name, attempted, failed)."""
    reference = cli_reference() if workload == "cli_quick" else None
    n_probes = 0 if trace else SETUP_PROBES // 2
    probes = [run_worker(workload, seed, "--setup-only")["ready_s"] for _ in range(n_probes)]
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        plain.append(one_round(workload, seed, reference, False))
        if trace:
            traced.append(one_round(workload, seed, reference, True))
    probes += [run_worker(workload, seed, "--setup-only")["ready_s"] for _ in range(n_probes)]
    rounds = plain + traced
    attempted = sum(len(r["op_s"]) for r in rounds)
    failures = {k: v for r in rounds for k, v in r["failed"].items()}
    for label, msg in sorted(failures.items()):
        print(f"FAILED {label}: {msg.strip().splitlines()[-1]}", file=sys.stderr)
    failed = sum(len(r["failed"]) for r in rounds)
    med = statistics.median
    if not trace:
        metrics = {
            "setup_s": med(probes),
            "wall_s": med(r["wall_s"] for r in plain),
            "op_p50_s": hd_median(np.median([r["op_s"] for r in plain], axis=0)),
            "peak_rss_mb": med(r["rss_kb"] for r in plain) / 1024.0,
        }
        print(f"{workload}: {len(plain)} rounds, {attempted} operations, "
              f"{SETUP_PROBES} set-up probes", file=sys.stderr)
        return metrics, attempted, failed
    metrics = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    base = med(r["wall_s"] for r in plain)
    overhead = med(r["wall_s"] for r in traced) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / base
    print(f"{workload}: {len(traced)} traced + {len(plain)} untraced rounds; "
          "top layers by self time:", file=sys.stderr)
    for name, secs in traced[-1]["top_layers"]:
        print(f"  {name:40s} {secs:10.4f} s", file=sys.stderr)
    return metrics, attempted, failed


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted average of all order statistics.
    The operations of one workload differ in cost, and the plain median
    jumps between cost levels when a gap in the sorted times falls at the
    middle; this estimate moves smoothly instead.
    """
    x = np.sort(np.asarray(list(values), dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a = (n + 1) / 2.0
    t = np.linspace(0.0, 1.0, 20001)
    pdf = np.zeros_like(t)
    inner = t[1:-1]
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    pdf[1:-1] = np.exp((a - 1.0) * (np.log(inner) + np.log1p(-inner)) - log_beta)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "smoothlab", "__init__.py")):
        print("bench: ./src/smoothlab not found; run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        metrics, attempted, failed = measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in list(_children):
            proc.kill()
            _wait(proc)
    if set(metrics) != set(declared):
        print(f"bench: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(f"machine: nproc {os.cpu_count()}, numpy {np.__version__}, OPENBLAS_NUM_THREADS "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset (OpenBLAS default)')}", file=sys.stderr)
    for name in declared:
        print(f"  {name:40s} {metrics[name]:>16.6g} {declared[name]}", file=sys.stderr)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
