"""Command line interface.

Exit codes: 0 success, 1 a check failed, 2 bad usage or hypothesis error.
Progress goes to stderr; each invocation writes exactly one JSON (or CSV)
report artifact, to stdout or to --output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys

from . import corpus as corpus_mod

from .errors import HypothesisError, ParameterError, SmoothlabError
from .grid import Exponent
from .moduli import modulus, modulus_curve
from .verify import (
    Workbench,
    canonical_json,
    make_config,
    report_rows,
    run_check,
    verify_all,
)

log = logging.getLogger("smoothlab")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _add_common(sp):
    sp.add_argument("--config", help="JSON file with option overrides (flags win)")
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--quick", action="store_true", help="small grids, d=1 only")
    sp.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smoothlab",
        description="fractional moduli of smoothness and inequality checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("modulus", help="modulus of smoothness at one scale")
    sp.add_argument("entry")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--method", choices=["spectral", "series"], default="spectral")
    _add_common(sp)

    sp = sub.add_parser("curve", help="modulus curve over the default delta grid")
    sp.add_argument("entry")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--method", choices=["spectral", "series"], default="spectral")
    _add_common(sp)

    sp = sub.add_parser("approx", help="near-best bandlimited error curve")
    sp.add_argument("entry")
    sp.add_argument("--p", default="2")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run one inequality check")
    sp.add_argument("property_id")
    sp.add_argument("--entry")
    sp.add_argument("--entry2")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--p")
    sp.add_argument("--q")
    sp.add_argument("--r", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--d", type=int)
    sp.add_argument("--side")
    sp.add_argument("--form")
    _add_common(sp)

    sp = sub.add_parser("verify-all", help="run the whole check matrix")
    _add_common(sp)

    sp = sub.add_parser("corpus", help="list the built-in test functions")
    _add_common(sp)
    return ap


def _load_config(args) -> dict:
    overrides = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config {args.config}: {exc.strerror}") from None
        except ValueError as exc:
            raise ParameterError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError(f"config {args.config} must hold a JSON object")
        overrides.update(loaded)
    if getattr(args, "quick", False):
        overrides["quick"] = True
    if getattr(args, "threads", None) is not None:
        overrides["threads"] = args.threads
    return overrides


def _exponent_arg(args, flag: str) -> Exponent:
    """The exponent given to ``--flag``; a bad value is a usage error naming it."""
    text = getattr(args, flag)
    try:
        return Exponent.parse(text)
    except ValueError:
        raise ParameterError(
            f"--{flag} must be a positive number or inf, got {text!r}"
        ) from None


def _emit(payload, args):
    if args.format == "csv":
        rows = payload if isinstance(payload, list) else payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = canonical_json(payload) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(
                f"--output: cannot write {args.output}: {exc.strerror}"
            ) from None
        log.info("report written to %s", args.output)
    else:
        sys.stdout.write(text)


def _verify_params(args) -> dict:
    params = {}
    for key in (
        "entry",
        "entry2",
        "alpha",
        "beta",
        "gamma",
        "r",
        "m",
        "lam",
        "sigma",
        "d",
        "side",
        "form",
    ):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    for key in ("p", "q"):
        if getattr(args, key, None) is not None:
            exponent = _exponent_arg(args, key)
            params[key] = "inf" if exponent.is_inf else exponent.p
    return params


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(_load_config(args))
        if args.command == "modulus":
            wb = Workbench(cfg)
            f = wb.fn(args.entry)
            p = _exponent_arg(args, "p")
            val = modulus(f, args.delta, args.alpha, p, method=args.method)
            _emit(
                {
                    "entry": args.entry,
                    "alpha": args.alpha,
                    "p": p.label(),
                    "delta": args.delta,
                    "value": val,
                },
                args,
            )
            return EXIT_OK
        if args.command == "curve":
            wb = Workbench(cfg)
            f = wb.fn(args.entry)
            c = modulus_curve(f, args.alpha, _exponent_arg(args, "p"),
                              deltas=wb.deltas(args.entry), method=args.method)
            if args.format == "csv":
                _emit([
                    {"entry": args.entry, "alpha": args.alpha, "p": c.p_label,
                     "delta": d, "value": v}
                    for d, v in zip(c.to_dict()["deltas"], c.to_dict()["values"])
                ], args)
            else:
                _emit(dict(c.to_dict(), entry=args.entry), args)
            return EXIT_OK
        if args.command == "approx":
            wb = Workbench(cfg)
            ac = wb.acurve(args.entry, _exponent_arg(args, "p"))
            if args.format == "csv":
                _emit([
                    {"entry": args.entry, "p": ac.p_label, "sigma": s, "error": v}
                    for s, v in zip(ac.to_dict()["sigmas"], ac.to_dict()["values"])
                ], args)
            else:
                _emit(dict(ac.to_dict(), entry=args.entry), args)
            return EXIT_OK
        if args.command == "verify":
            report = run_check(args.property_id, _verify_params(args), cfg)
            if args.format == "csv":
                _emit(report_rows(report), args)
            else:
                _emit(report.to_dict(), args)
            log.info("%s: %s", args.property_id, report.verdict)
            return EXIT_OK if report.passed else EXIT_CHECK_FAILED
        if args.command == "verify-all":
            result = verify_all(cfg)
            _emit(result, args)
            summary = result["summary"]
            log.info(
                "checks: %d pass, %d info, %d fail",
                summary["n_pass"],
                summary["n_info"],
                summary["n_fail"],
            )
            return EXIT_OK if summary["all_pass"] else EXIT_CHECK_FAILED
        if args.command == "corpus":
            entries = [
                {
                    "name": e.name,
                    "dimension": e.dimension,
                    "description": e.description,
                }
                for e in corpus_mod.corpus_list()
            ]
            _emit(entries if args.format == "csv" else {"entries": entries}, args)
            return EXIT_OK
        raise SmoothlabError(f"unknown command {args.command}")
    except HypothesisError as exc:
        log.error("hypothesis not satisfied: %s", exc)
        return EXIT_USAGE
    except SmoothlabError as exc:
        log.error("error: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
