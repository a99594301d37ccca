"""Command line interface.

Exit codes: 0 success, 1 a check failed, 2 bad usage or hypothesis error.
Progress goes to stderr; each invocation writes exactly one JSON (or CSV)
report artifact, to stdout or to --output.

``main`` builds the one Workbench of a run from the config and the flags,
and hands it to the subcommand's function ``run(args, wb)``, which
returns the payload, its CSV rows and the exit code.
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
from .verify import Workbench, canonical_json, report_rows, run_check, verify_all

log = logging.getLogger("smoothlab")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

def number(text: str) -> int | float:
    """A whole number as an int, any other number as a float: ``--r`` is
    an int order for P3, P4, P5 and P11 and a float one for P6."""
    value = float(text)
    return int(value) if value.is_integer() else value


#: the ``verify`` flags, each a check parameter, and their types; the
#: exponents ``--p``/``--q`` are parsed after argparse, so a bad one is an
#: ``error:`` line naming the flag
VERIFY_FLAGS = {
    "entry": str, "entry2": str, "alpha": float, "beta": float, "gamma": float,
    "p": Exponent, "q": Exponent, "r": number, "m": int, "lam": float, "sigma": float,
    "d": int, "side": str, "form": str,
}


def _add_output(sp):
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--format", choices=["json", "csv"], default="json")


def _add_common(sp):
    sp.add_argument("--config", help="JSON file with option overrides (flags win)")
    _add_output(sp)
    sp.add_argument("--quick", action="store_true", help="small grids, d=1 only")


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
    sp.set_defaults(run=_modulus)

    sp = sub.add_parser("curve", help="modulus curve over the default delta grid")
    sp.add_argument("entry")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--method", choices=["spectral", "series"], default="spectral")
    _add_common(sp)
    sp.set_defaults(run=_curve)

    sp = sub.add_parser("approx", help="near-best bandlimited error curve")
    sp.add_argument("entry")
    sp.add_argument("--p", default="2")
    _add_common(sp)
    sp.set_defaults(run=_approx)

    sp = sub.add_parser("verify", help="run one inequality check")
    sp.add_argument("property_id")
    for flag, kind in VERIFY_FLAGS.items():
        sp.add_argument(f"--{flag}", type=str if kind is Exponent else kind)
    _add_common(sp)
    sp.set_defaults(run=_verify)

    sp = sub.add_parser("verify-all", help="run the whole check matrix")
    _add_common(sp)
    sp.add_argument("--threads", type=int, default=None, help="worker threads for the matrix")
    sp.set_defaults(run=_verify_all)

    sp = sub.add_parser("corpus", help="list the built-in test functions")
    _add_output(sp)
    sp.set_defaults(run=_corpus)
    return ap


def _load_config(args) -> dict:
    """The config overrides of the flags and ``--config``; the Workbench
    checks them."""
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


def _emit(args, payload, rows):
    """Write ``payload`` as canonical JSON, or with ``--format csv`` the list
    of dicts ``rows``, its flat form."""
    if args.format == "csv":
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
    for flag, kind in VERIFY_FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            params[flag] = _exponent_arg(args, flag).p if kind is Exponent else value
    return params


def _modulus(args, wb):
    f = wb.fn(args.entry)
    p = _exponent_arg(args, "p")
    val = modulus(f, args.delta, args.alpha, p, method=args.method)
    row = {"entry": args.entry, "alpha": args.alpha, "p": p.label(),
           "delta": args.delta, "value": val}
    return row, [row], EXIT_OK


def _curve(args, wb):
    c = modulus_curve(wb.fn(args.entry), args.alpha, _exponent_arg(args, "p"),
                      deltas=wb.deltas(args.entry), method=args.method)
    payload = dict(c.to_dict(), entry=args.entry)
    return payload, [
        {"entry": args.entry, "alpha": args.alpha, "p": c.p_label, "delta": d, "value": v}
        for d, v in zip(payload["deltas"], payload["values"])
    ], EXIT_OK


def _approx(args, wb):
    ac = wb.acurve(args.entry, _exponent_arg(args, "p"))
    payload = dict(ac.to_dict(), entry=args.entry)
    return payload, [
        {"entry": args.entry, "p": ac.p_label, "sigma": s, "error": v}
        for s, v in zip(payload["sigmas"], payload["values"])
    ], EXIT_OK


def _verify(args, wb):
    report = run_check(args.property_id, _verify_params(args), wb)
    log.info("%s: %s", args.property_id, report.verdict)
    payload = report.to_dict()
    return payload, report_rows(payload), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _verify_all(args, wb):
    result = verify_all(wb)
    summary = result["summary"]
    log.info("checks: %d pass, %d info, %d fail",
             summary["n_pass"], summary["n_info"], summary["n_fail"])
    rows = [row for r in result["reports"] for row in report_rows(r)]
    return result, rows, EXIT_OK if summary["all_pass"] else EXIT_CHECK_FAILED


def _corpus(args, wb):
    entries = [{"name": e.name, "dimension": e.dimension, "description": e.description}
               for e in corpus_mod.corpus_list()]
    return {"entries": entries}, entries, EXIT_OK


def main(argv=None) -> int:
    """Parse ``argv``, build the run's one Workbench, run the command's
    function on it and write its report."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        payload, rows, code = args.run(args, Workbench(_load_config(args)))
        _emit(args, payload, rows)
        return code
    except HypothesisError as exc:
        log.error("hypothesis not satisfied: %s", exc)
        return EXIT_USAGE
    except SmoothlabError as exc:
        log.error("error: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
