"""Self-tests of the benchmark.

    python3 bench/selftest.py oracles
        Every oracle accepts smoothlab's real output and rejects the same
        output perturbed by 1e-6 relative (about 15 seconds).

    python3 bench/selftest.py stability
        Runs bench/run.py --trace 0 on every workload of BENCHMARK.json in
        two sets of ten runs (seeds 1-20) and holds them against its bounds:
        in each set the quartile spread of every end-to-end metric but
        setup_s stays within its bound, the second set's median of every
        end-to-end metric is not worse than the first's by more than the
        bound, and the share of failed operations is the same in both sets.
        A set-up lasts about 0.3 s and so samples the machine's speed over
        well under a second, where it varies by about 25 %: setup_s is held
        to its bound by the drift of its median between the sets, and its
        spread is printed but not gated.

Run from the repository root.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

import oracles as O
import workloads as W

PERTURB = 1e-6
#: runs per set and sets of the stability check
RUNS, SETS = 10, 2


def _expect(name: str, verdict_ok: bool, perturbed_ok: bool, failures: list, one_sided: str = ""):
    print(f"{name:48s} accepts real output: {verdict_ok}; "
          f"rejects perturbed: {not perturbed_ok}{one_sided}")
    if not verdict_ok or perturbed_ok:
        failures.append(name)


def oracle_tests() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import smoothlab as sl
    import smoothlab.cli  # noqa: F401

    failures: list = []
    up, down = 1.0 + PERTURB, 1.0 - PERTURB

    # matrix_1d: gaussian L2 curve and p = 2 near-best errors
    f = sl.corpus.grid_function("gaussian", N=1024, L=40.0)
    deltas = np.geomspace(4 * f.grid.spacing, 1.0, 6)
    vals = np.array([sl.moduli.modulus(f, float(d), 1.0, 2.0) for d in deltas])
    ref = O.gaussian_l2_modulus(deltas)
    _expect("gaussian L2 modulus curve", O.close(vals, ref)[0], O.close(vals * up, ref)[0],
            failures)
    ac = sl.approx.approx_curve(f, 2.0, k_max=6)
    ref = [O.gaussian_l2_norm()] + [O.gaussian_l2_tail(1024, 40.0, s) for s in ac.sigmas[1:]]
    scale = O.gaussian_l2_norm()
    _expect("gaussian p=2 near-best errors", O.close(ac.raw_values, ref, scale=scale)[0],
            O.close(ac.raw_values * up, ref, scale=scale)[0], failures)

    # moduli_2d: every operation on a 64^2 grid to keep this quick, except
    # p = 1/2, whose round-off bracket is sized for the workload's 256^2
    # grid and is checked there at the smallest delta of the 2-D grid
    for n, delta, only in ((64, 0.5, None), (256, 0.3125, "p=0.5")):
        state = {"f": sl.corpus.grid_function("gaussian2d", N=n, L=20.0), "delta": delta}
        for (label, op), (_, chk) in zip(W.ops_2d(sl, state), W.refs_2d(delta, n, 20.0)):
            if ("p=0.5" in label) != (only == "p=0.5"):
                continue
            value = op()
            if only:
                # the bracket is one-sided above: only a value below the
                # exact sampled norm is provably wrong
                _expect(f"{label} N={n}", chk(value)[0], chk(value * down)[0], failures,
                        " (perturbed downwards)")
            else:
                bent_ok = chk(value * up)[0] and chk(value * down)[0]
                _expect(f"{label} N={n}", chk(value)[0], bent_ok, failures)

    # series_route: one case per input, at the cheapest step
    state = W.setup_series(sl, 7)
    state["cases"] = [c for c in state["cases"] if c[4] == W.SERIES_STEPS[-1] and c[3] == 1.5]
    results = [op() for _, op in W.ops_series(sl, state)]
    for case, got in zip(state["cases"], results):
        name, fn, ref, a, h = case
        _expect(f"series {name} alpha={a} h={h:.3g}", not W.check_series({"cases": [case]}, [got]),
                not W.check_series({"cases": [case]}, [got * up]), failures)

    # cli_quick: the report's own gaussian row, and byte identity
    code, text = W.run_cli_in_process(sl, W.CLI_ARGS)
    report = json.loads(text)
    for row in report["reports"]:
        if row["property_id"] == "P1a":
            row["lhs"] = [v * up for v in row["lhs"]]
    bent = json.dumps(report)
    _expect("cli report (P1a gaussian row)", W.check_cli_output(code, text, text) is None,
            W.check_cli_output(code, bent, None) is None, failures)
    _expect("cli report byte identity", W.check_cli_output(code, text, text) is None,
            W.check_cli_output(code, text, text.replace("1", "2", 1)) is None, failures)

    print(f"{len(failures)} oracle self-test(s) failed" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def stability() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                r = _run(w, 1 + s * RUNS + i, spec["run_seconds"])
                results[w][s].append(r)
                print(f"set {s} run {i} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    problems = []
    for w in names:
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in results[w]}
        if len(shares) > 1:
            problems.append(f"{w}: failed share differs between sets {sorted(shares)}")
        for m in spec["end_to_end"]:
            meds = []
            for s, rs in enumerate(results[w]):
                vals = [r["metrics"][m["name"]]["value"] for r in rs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(statistics.median(vals))
                mark = ("ok" if spread <= m["bound"] / 3
                        else "within bound" if spread <= m["bound"] else "TOO WIDE")
                print(f"{w:13s} {m['name']:12s} set {s}: median {meds[-1]:.5g} {m['unit']}, "
                      f"spread {spread:.3%} (bound {m['bound']:.0%}) {mark}")
                if spread > m["bound"] and m["name"] != "setup_s":
                    problems.append(f"{w} {m['name']} set {s}: spread {spread:.3%}")
            for s in range(1, SETS):
                drift = (meds[s] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
                print(f"{w:13s} {m['name']:12s} set {s} vs set 0: worse by {drift:.3%}")
                if drift > m["bound"]:
                    problems.append(f"{w} {m['name']}: set {s} worse by {drift:.3%}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "stability.json"), "w") as fh:
        json.dump(results, fh)
    print("\n".join(problems) if problems else "all spreads and drifts within bounds")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("what", choices=("oracles", "stability"))
    args = ap.parse_args()
    return oracle_tests() if args.what == "oracles" else stability()


if __name__ == "__main__":
    sys.exit(main())
