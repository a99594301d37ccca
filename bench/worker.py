"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--setup-only] [--trace]
                            [--reference FILE]

Run from the repository root; smoothlab is imported from ./src.  The
worker prints ``ready`` as soon as set-up is done (run.py times set-up up
to that line), then runs the round's operations, checks their outputs and
prints one JSON line: per-operation seconds, the round's wall seconds, the
failed operations and, with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", help="file with the --threads 1 CLI report (cli_quick)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    import smoothlab as sl

    if args.workload == "cli_quick":
        import smoothlab.cli  # noqa: F401  (the package does not import cli)
    import workloads

    setup, make_ops, check = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
    # the traced CLI round builds everything inside cli.main, as a fresh CLI does
    state = {} if (tracer is not None and args.workload == "cli_quick") else setup(sl, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.reference:
        with open(args.reference) as fh:
            state["reference"] = fh.read()

    ops = make_ops(sl, state)
    results, times, errors = [], [], {}
    t_round = time.perf_counter()
    for i, (label, op) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            results.append(op())
        except Exception:  # an operation that raises counts as failed
            results.append(None)
            errors[i] = traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - t_round

    out = {"op_s": times, "wall_s": wall}
    if tracer is not None:
        tracer.enabled = False
        out["layers"] = tracer.layer_metrics()
        kernels = sl.spectral._interp_v_axis_matrix.cache_info()
        out["layers"]["spectral.interp_v_kernel_builds"] = kernels.misses
        out["top_layers"] = tracer.top_layers()
    try:
        for i, msg in check(state, results):
            errors.setdefault(i, msg)
        out["check_error"] = None
    except Exception:
        out["check_error"] = traceback.format_exc(limit=5)
    out["failed"] = {ops[i][0]: msg for i, msg in sorted(errors.items())}
    if tracer is not None:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
