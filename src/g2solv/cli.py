"""Command line front end: it parses the arguments and prints the reports
of the package's modules.

Subcommands
    verify-lattice   certify a quartic + three units (or a built-in example)
    torsion          torsion report for a bracket triple
    erp-check        extremal-pinching residual for a closed triple
    soliton          enumerate coclosed solitons over (a1, a2, b1, b2)
    flow             integrate the coflow ODE, CSV trajectory output; a
                     sweep's starts run in forked worker processes
    audit            the source's claims re-derived by `g2solv.audit`

Exit codes: 0 success / verdict true, 1 verdict false or threshold exceeded,
2 usage or input errors, printed as 'error: <message>'.  Each report reads
one input source (in parentheses in its usage), --unit only with --poly.
Numbers must be finite; a sweep file must hold a start; flow takes at least
2 --samples.  JSON writes an undefined F as null.  Verdicts are decided on
the triple scaled by a power of two to unit size, so they do not depend on
its scale, and a reported value beyond the float range is an input error.
erp-check pinches when |residual| / |tau|^2 is at most --tol, which must
not be negative.  Matrix literals use ';' between rows and ',' between
entries; '@path' reads the literal from a file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import signal
import sys

import numpy as np

from . import audit, forms
from .coflow import CoclosedParams, FlowOptions, integrate, modified_soliton_residual, soliton_solve
from .g2core import closed_triple, erp_residual, laplacians, torsion_forms
from .liealg import BracketTriple, check_compatible, ricci_report
from .numberlat import BUILTIN_EXAMPLES, QuarticPoly, UnitSpec, certify_lattice


def _parse_matrix(text: str) -> np.ndarray:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    rows = [r for r in text.split(";") if r.strip()]
    M = np.array([_parse_floats(r, 4) for r in rows], dtype=float)
    if M.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    return M


def _parse_ints(text: str, n: int) -> list[int]:
    vals = [int(x) for x in text.split(",")]
    if len(vals) != n:
        raise ValueError(f"expected {n} comma-separated integers")
    return vals


def _parse_floats(text: str, n: int) -> list[float]:
    vals = [float(x) for x in text.split(",")]
    if len(vals) != n:
        raise ValueError(f"expected {n} comma-separated numbers, got {text.strip()!r}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"expected finite numbers, got {text.strip()!r}")
    return vals


def _finite_float(text: str) -> float:
    """argparse type of the float options: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _emit(payload: str, out: str | None):
    if not payload.endswith("\n"):
        payload += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _triple_from_args(args) -> BracketTriple:
    """The triple of the one source option (argparse admits exactly one)."""
    if args.triple is not None:
        return BracketTriple(*[_parse_matrix(m) for m in args.triple])
    if args.closed is not None:
        return closed_triple(*_parse_floats(args.closed, 3))
    return CoclosedParams(*_parse_floats(args.coclosed, 6)).to_triple()


def _cmd_verify_lattice(args) -> int:
    if args.example is not None:
        if args.unit is not None:
            raise ValueError("--unit goes with --poly: an --example brings its own units")
        ex = BUILTIN_EXAMPLES[args.example]
        p, units = ex["poly"], ex["units"]
        reference = ex["reference"]
    else:
        p = QuarticPoly(*_parse_ints(args.poly, 4))
        units = [UnitSpec(*_parse_ints(u, 4)) for u in args.unit or []]
        reference = None
    cert = certify_lattice(p, units)
    payload = cert.to_dict()
    if reference is not None:
        payload["reproduces_reference"] = cert.matrices == reference
    if args.format == "text":
        lines = [f"polynomial coefficients (a0..a3): {list(payload['poly'])}"]
        for k, v in payload["checks"].items():
            lines.append(f"  {k}: {v}")
        lines.append(f"verdict: {payload['verdict']}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    ok = cert.verdict and (reference is None or payload["reproduces_reference"])
    return 0 if ok else 1


def _cmd_torsion(args) -> int:
    t = _triple_from_args(args)
    tf = torsion_forms(t)
    rep = ricci_report(t)
    payload = {
        "tau0": tf.tau0,
        "tau1_norm": tf.tau1.norm(),
        "tau2_norm": tf.tau2.norm(),
        "tau3_norm": tf.tau3.norm(),
        "torsion_class": [k for k, v in sorted(tf.torsion_class.items()) if v],
        "norm_sq_tau": tf.norm_sq_tau,
        "scal": rep["scal"],
        "F": rep["F"],
        "closed": tf.closed,
        "compatible": check_compatible(t).compatible,
    }
    if payload["closed"]:
        payload["erp_residual"] = erp_residual(t)["residual_norm"]
    if args.format == "text":
        lap = laplacians(t)
        lines = [f"{k}: {v}" for k, v in payload.items()]
        lines.append("tau2 = " + forms.format_form(tf.tau2))
        lines.append("tau3 = " + forms.format_form(tf.tau3))
        lines.append("lap phi = " + forms.format_form(lap["phi"]))
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_erp_check(args) -> int:
    if args.tol < 0:
        raise ValueError(f"--tol must be nonnegative, got {args.tol!r}")
    t = _triple_from_args(args)
    res = erp_residual(t)
    payload = {
        "residual_norm": res["residual_norm"],
        "tau_norm_sq": res["tau_norm_sq"],
        "relative_residual": res["relative_residual"],
        "threshold": args.tol,
        "extremally_pinched": res["relative_residual"] <= args.tol,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if payload["extremally_pinched"] else 1


def _cmd_soliton(args) -> int:
    a1, a2, b1, b2 = _parse_floats(args.base, 4)
    sols = soliton_solve(a1, a2, b1, b2)
    items = []
    for s in sols:
        item = {
            "params": list(s.params.as_array()),
            "lambda": s.lam,
            "d": s.d,
            "residual": s.residual,
        }
        if args.modified_m is not None:
            item["modified_residual"] = modified_soliton_residual(
                s.params, args.modified_m)["residual"]
        items.append(item)
    _emit(json.dumps({"base": [a1, a2, b1, b2], "solutions": items}, indent=2), args.out)
    return 0


_CSV_HEADER = "t,a1,a2,b1,b2,c1,c2,N,F,r,s,tc"
_CSV_ROW = ",".join(["%.17g"] * len(_CSV_HEADER.split(",")))


def _share(func, items, k: int, n: int):
    """func over items[k::n]: (True, results), or (False, (position, error))
    at the first error."""
    results = []
    for i in range(k, len(items), n):
        try:
            results.append(func(items[i]))
        except Exception as exc:
            return False, (i, exc)
    return True, results


def _fan_out(func, items: list) -> list:
    """[func(x) for x in items], in order, over min(len(items), usable CPUs)
    processes: worker k forks and takes items[k::n], the parent takes share 0.

    The work holds the GIL, so threads do not help; raw os.fork with one pipe
    per worker does, where a fork-based multiprocessing Pool measured slower
    than the serial loop.  Workers inherit func and items, so only results
    and errors are pickled.  The serial loop runs for fewer than 2 workers,
    without os.fork, and on Python 3.12 or later, whose os.fork warns in a
    process with threads (numpy's OpenBLAS keeps one).  When items fail, the
    error of the first in order is raised, as in the serial loop; a worker
    that ends without its results raises RuntimeError.  No worker outlives
    the call.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    n = min(len(items), cpus)
    if n < 2 or not hasattr(os, "fork") or sys.version_info >= (3, 12):
        return [func(x) for x in items]
    children, payloads, statuses = [], [], []  # children: (pid, read end of its pipe)
    done = False
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                # leave only through os._exit: no flush of the parent's
                # buffers, no atexit or test hooks
                code = 1
                try:
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(_share(func, items, k, n), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        shares = [_share(func, items, 0, n)]
        for _, r in children:
            with open(r, "rb", closefd=False) as fh:
                payloads.append(fh.read())
        done = True
    finally:
        for pid, r in children:
            os.close(r)
            if not done:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), data, status in zip(children, payloads, statuses):
        if status:
            raise RuntimeError(f"worker {pid} ended with exit status "
                               f"{os.waitstatus_to_exitcode(status)} and no results")
        shares.append(pickle.loads(data))
    failures = [detail for ok, detail in shares if not ok]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(items)
    for k, (_, results) in enumerate(shares):
        out[k::n] = results
    return out


def _cmd_flow(args) -> int:
    """Integrate each start of --sweep, or the one --init; a sweep labels runs.

    Each start's integration and text is one `report`, and a sweep's reports
    are spread over worker processes by `_fan_out`; the output is the same
    as the serial loop's, byte for byte."""
    if args.sweep is not None:
        with open(args.sweep, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines()
                     if line.strip() and not line.startswith("#")]
        if not lines:
            raise ValueError(f"sweep file {args.sweep} holds no start")
    else:
        lines = [args.init]
    starts = [_parse_floats(line, 6) for line in lines]

    def report(start):
        """(status, the start's JSON run or CSV block)"""
        traj = integrate(CoclosedParams(*start), args.t_max, FlowOptions(samples=args.samples))
        table = np.column_stack([traj.times, traj.params, traj.norms(),
                                 traj.invariants(), traj.coefficients()])
        if args.format == "json":
            # F is NaN on the flat point, which JSON writes as null
            rows = [[None if math.isnan(x) else x for x in row] for row in table.tolist()]
            run = {"status": traj.status, "columns": _CSV_HEADER.split(","), "rows": rows}
            return traj.status, ({"start": start, **run} if args.sweep else run)
        csv = (_CSV_HEADER + ("\n" + _CSV_ROW) * len(table)) % tuple(table.ravel().tolist())
        return traj.status, (f"# start {','.join(map(str, start))} status {traj.status}\n{csv}"
                             if args.sweep else f"{csv}\n# status {traj.status}")

    statuses, reports = zip(*_fan_out(report, starts))
    if args.format == "json":
        _emit(json.dumps({"runs": reports} if args.sweep else reports[0]), args.out)
    else:
        _emit("\n".join(reports), args.out)
    return int("diverged" in statuses)


def _cmd_audit(args) -> int:
    _emit(json.dumps({"claims": audit.claims()}, indent=2), args.out)
    return 0


def _add_global_options(p: argparse.ArgumentParser, top_level: bool):
    """--format and --out, accepted before and after the subcommand.

    Only the top level has defaults: a subcommand leaves an absent option
    unset, so it keeps a value given before the subcommand."""
    def default(value):
        return value if top_level else argparse.SUPPRESS

    p.add_argument("--format", choices=["json", "csv", "text"], default=default(None),
                   help="json (default) or text for verify-lattice and torsion, "
                        "csv (default) or json for flow, json for the others")
    p.add_argument("--out", default=default(None),
                   help="write output to this file instead of stdout")


# No option name starts with a digit or '.', so a token such as -0.5,1,1 or
# "-1,0,0,0;..." is always a value; by default argparse reads only plain
# numbers such as -1 or -.5 as values and rejects the rest.
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="g2solv", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap._negative_number_matcher = _NEGATIVE_VALUE
    _add_global_options(ap, top_level=True)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, formats=("json",), **kw):
        p = sub.add_parser(name, **kw)
        p._negative_number_matcher = _NEGATIVE_VALUE
        _add_global_options(p, top_level=False)
        p.set_defaults(formats=formats)
        return p

    vl = add_parser("verify-lattice", formats=("json", "text"),
                    help="certify a quartic + three units")
    source = vl.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", choices=sorted(BUILTIN_EXAMPLES))
    source.add_argument("--poly", help="a0,a1,a2,a3 for monic t^4+a3 t^3+a2 t^2+a1 t+a0")
    vl.add_argument("--unit", action="append",
                    help="q0,q1,q2,q3, with --poly; a lattice needs exactly three "
                         "(repeat the option)")
    vl.set_defaults(func=_cmd_verify_lattice)

    def add_triple_args(p, closed_only=False):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--closed", help="a,b,c for the closed diagonal family")
        if not closed_only:
            source.add_argument("--coclosed", help="a1,a2,b1,b2,c1,c2 coclosed parameters")
        source.add_argument("--triple", nargs=3, metavar="MAT",
                            help="three 4x4 matrices, rows ';', entries ','")

    to = add_parser("torsion", formats=("json", "text"), help="torsion forms, class and curvature")
    add_triple_args(to)
    to.set_defaults(func=_cmd_torsion)

    ec = add_parser("erp-check", help="extremal-pinching residual (closed case)")
    add_triple_args(ec, closed_only=True)
    ec.add_argument("--tol", type=_finite_float, default=1e-9,
                    help="pinched when the relative residual |residual| / |tau|^2 "
                         "is at most this (default 1e-9)")
    ec.set_defaults(func=_cmd_erp_check)

    so = add_parser("soliton", help="solve the coclosed soliton equations")
    so.add_argument("--base", required=True, help="a1,a2,b1,b2")
    so.add_argument("--modified-m", type=_finite_float, default=None,
                    help="also report the modified-flow residual at this nonzero m")
    so.set_defaults(func=_cmd_soliton)

    fl = add_parser("flow", formats=("csv", "json"), help="integrate the coflow parameter ODE")
    source = fl.add_mutually_exclusive_group(required=True)
    source.add_argument("--init", help="a1,a2,b1,b2,c1,c2 starting parameters")
    source.add_argument("--sweep", help="file with one 6-tuple start per line")
    fl.add_argument("--t-max", type=_finite_float, default=50.0)
    fl.add_argument("--samples", type=int, default=501)
    fl.set_defaults(func=_cmd_flow)

    au = add_parser("audit", help="re-derive source claims and report agreement")
    au.set_defaults(func=_cmd_audit)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.format not in (None, *args.formats):
            raise ValueError(f"{args.command} writes {' or '.join(args.formats)}, "
                             f"not {args.format}")
        return int(args.func(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
