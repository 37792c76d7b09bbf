"""Command-line front end.

Subcommands: construct | powers | cesaro | kreiss | claims | growth |
reproduce.  construct, powers and growth norm a catalog entry's powers
by its own exact route, `CatalogEntry.power_norms`: construct reports
||T||, the first value, with no power iteration, and tzblock's powers
are normed by a Sturm count, with no dense power formed.  Every run
writes a deterministic report.json into --out, and --format csv adds
the run's CSV tables next to it (reproduce always writes both): the
same flags and seed always produce byte-identical files.  The exit
status is 1 when any definite check failed, 2 when the input is invalid
(an --out that is not, or cannot become, a writable directory and a
negative --seed included, each rejected before any sweep runs), and 3
when a numerical kernel failed: the Gram eigensolve of a matrix to be
normed failed or met a non-finite entry, the SVD of a resolvent system
failed (resolvent_norm, which the kreiss sweep calls once, as the
oracle at its sup), an orbit norm of the claims was not finite, a
resolvent was singular, or a dense size cap was exceeded.  A stalled
power iteration (reproduce's spectral_norm) is not a failure:
spectral_norm then takes its structural oracle's value.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .cesaro import rotated_mean_norm_profile
from .constructions import (CATALOG_NAMES, SHIFT_NAMES, ErgcesParams, make_operator,
                            shields_certified_kmax)
from .errors import ConvergenceError, SingularError, SizeError, ValidationError
from .growth import growth_fit
from .kreiss import (CLAIM_COLUMNS, AnnulusGrid, dyadic_ladder, kb2_constant, kreiss_constant,
                     run_hilbert_claims)
from .operators import SEED, _count, blocks
from .reports import CheckRecord, RunConfig, emit_report, summarize
from .reproduce import GROWTH_COLUMNS, reproduce, shields_envelope


def _parse_radii(text: str):
    return tuple(float(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreisslab",
        description="Numerical experiments on resolvent bounds, Cesaro means, "
                    "and power-norm growth of structured operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--operator", required=True, choices=CATALOG_NAMES)
        p.add_argument("--trunc", type=int, default=16,
                       help="size parameter: n for tn, d for bermbmp/tzblock, "
                            "basis cutoff for ergces")
        p.add_argument("--eta", type=float, default=0.45,
                       help="shift exponent (also the bermbmp exponent)")
        p.add_argument("--epsilon", type=float, default=0.15)
        p.add_argument("--nmax-sum", type=int, default=8,
                       help="number of direct summands for shields")
        p.add_argument("--direction", choices=("forward", "backward"), default="forward")
        p.add_argument("--seed", type=int, default=SEED)
        p.add_argument("--out", default=".")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("construct", help="build a catalog operator and summarize it")
    add_common(p)

    p = sub.add_parser("powers", help="power-norm series ||T^k||")
    add_common(p)
    p.add_argument("--k-max", type=int, default=32)

    p = sub.add_parser("cesaro", help="rotated Cesaro mean norm profile")
    add_common(p)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--angles", type=int, default=256)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)

    p = sub.add_parser("kreiss", help="resolvent-type constants")
    add_common(p)
    p.add_argument("--n-max", type=int, default=128)
    p.add_argument("--k-max", type=int, default=16)
    p.add_argument("--angles", type=int, default=64)
    p.add_argument("--radii", type=_parse_radii, default=None,
                   help="comma-separated radii > 1")

    p = sub.add_parser("claims", help="orbit inequality checks against the quadratic constant")
    add_common(p)
    p.add_argument("--n-max", type=int, default=256,
                   help="mean index sweep for the constant estimate")
    p.add_argument("--k-max", type=int, default=64, help="top of the dyadic claim ladder")
    p.add_argument("--angles", type=int, default=256)
    p.add_argument("--probes", type=int, default=64)

    p = sub.add_parser("growth", help="power-law fit of the norm series")
    add_common(p)
    p.add_argument("--k-max", type=int, default=126)
    p.add_argument("--window", type=int, nargs=2, default=(16, 126))

    p = sub.add_parser("reproduce", help="run one canonical experiment end to end")
    p.add_argument("theorem_id")
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--out", default=".")
    return parser


def _check_out(out):
    """Reject an --out that cannot become a writable directory, before any sweep runs.

    The nearest existing path at or above out must be a writable
    directory: out itself, or an ancestor under which out is created.
    """
    path = Path(out).absolute()
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ValidationError(f"--out {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ValidationError(f"--out {out}: {existing} is not writable")


def _operator_entry(args):
    name = args.operator
    if name == "tn":
        return make_operator("tn", n=args.trunc, eta=args.eta)
    if name == "shields":
        return make_operator("shields", epsilon=args.epsilon, eta=args.eta,
                             n_max=args.nmax_sum)
    if name == "bermbmp":
        return make_operator("bermbmp", alpha=args.eta, direction=args.direction, d=args.trunc)
    if name == "ergces":
        return make_operator("ergces", j_max=args.trunc)
    return make_operator("tzblock", d=args.trunc)


def _config(args, entry):
    """The run's RunConfig: each field from the flag of its name, every other flag an option."""
    parsed = vars(args)
    fixed = {f.name for f in fields(RunConfig)} & parsed.keys()
    return RunConfig(params=dict(entry.params),
                     options={name: value for name, value in parsed.items() if name not in fixed},
                     **{name: parsed[name] for name in fixed})


def _emit(args, config, records, tables):
    results = [record.to_dict() for record in records]
    emit_report(config, results, tables if args.format == "csv" else None, args.out)
    summary = summarize(results)
    print(f"{config.command}: {summary['checks']} records, "
          f"{summary['failed']} failed, {summary['no_verdict']} no verdict")
    return 0 if summary["all_passed"] else 1


def _cmd_construct(args) -> int:
    entry = _operator_entry(args)
    norm = float(entry.power_norms(1).values[0])
    results = [CheckRecord("operator-summary", "info", norm,
                           detail=f"dimension={entry.dimension}; " + "; ".join(entry.notes))]
    rows = []  # each shift block's weights, w = 1 at its first coordinate
    if entry.name in SHIFT_NAMES:  # the others are dense: their spec is a matrix, not read here
        for start, _, _, leaf in blocks(entry.spec):
            weights = np.cumprod(np.concatenate(([1.0], leaf.ratios)))
            rows += [(start + j + 1, float(w)) for j, w in enumerate(weights)]
    return _emit(args, _config(args, entry), results,
                 {"operator.csv": (("index", "value"), rows)})


def _cmd_powers(args) -> int:
    entry = _operator_entry(args)
    series = entry.power_norms(args.k_max)
    rows = [(int(k), float(v), m) for k, v, m in zip(series.k, series.values, series.methods)]

    results = [CheckRecord("power-norms", "info", float(series.values.max()),
                           detail=f"k <= {args.k_max}")]
    return _emit(args, _config(args, entry), results,
                 {"powers.csv": (("k", "norm", "method"), rows)})


def _cmd_cesaro(args) -> int:
    entry = _operator_entry(args)
    profile = rotated_mean_norm_profile(entry.spec, args.n_max, args.angles, args.order)
    rows = []
    for i, n in enumerate(profile.n):
        m2 = float(profile.norm_m2[i]) if profile.norm_m2 is not None else None
        rows.append((int(n), float(profile.norm_m1[i]), m2, float(profile.sup_lambda[i])))
    results = [CheckRecord("mean-profile", "info", float(profile.sup_lambda.max()),
                           detail=f"order={profile.order}; "
                                  f"rotation_shortcut={profile.rotation_shortcut}; "
                                  f"angle_count={profile.angle_count}")]
    return _emit(args, _config(args, entry), results,
                 {"means.csv": (("n", "norm_M1", "norm_M2", "sup_lambda"), rows)})


def _check_sweep(args):
    """Reject the mean sweep's settings before any sweep runs, not after the first."""
    _count(args.n_max, "n_max")
    _count(args.angles, "angle count", 1)


def _kreiss_bracket(entry, grid_sup: float) -> dict:
    """The certified sides of the Kreiss constant: each a value and its method, or None.

    Every grid point's value is a lower bound, so the grid sup is one.
    For ergces the eigenprojection at -1 gives K >= ||y_J|| and the
    power bound K <= sup_n ||T^n|| <= 1 + ||y_J|| (reproduce._prop35).
    """
    bracket = {"kreiss_C_lower": grid_sup, "kreiss_C_lower_method": "grid"}
    if entry.name == "ergces":
        left = ErgcesParams(entry.params["j_max"]).left_norm
        if left > grid_sup:
            bracket.update(kreiss_C_lower=left, kreiss_C_lower_method="eigenprojection")
        bracket.update(kreiss_C_upper=1.0 + left, kreiss_C_upper_method="power-bound")
    return bracket


def _cmd_kreiss(args) -> int:
    _check_sweep(args)
    _count(args.k_max, "k_max", 1)
    entry = _operator_entry(args)
    grid = (AnnulusGrid(args.radii, args.angles) if args.radii is not None
            else AnnulusGrid.default(args.angles))
    base = kreiss_constant(entry.spec, grid, args.k_max)  # the plain and strong sweeps in one pass
    kb2 = kb2_constant(entry.spec, args.n_max, args.angles)
    report = replace(base, ukb_C=kb2.ukb_C, kb2_C=kb2.kb2_C, kb2_sum_C=kb2.kb2_sum_C,
                     n_max=kb2.n_max, **_kreiss_bracket(entry, base.kreiss_C))
    results = [CheckRecord("kreiss-report", "info", params=report.to_dict())]
    if report.kreiss_C < report.kreiss_C_lower * (1.0 - 1e-9):
        results.append(CheckRecord(
            "kreiss-grid-missed-sup", "info", report.kreiss_C,
            params={"kreiss_C_lower": report.kreiss_C_lower,
                    "method": report.kreiss_C_lower_method},
            detail="kreiss sweep: the grid sup lies below the certified lower bound"))
    if report.kreiss_C_radius == min(grid.radii):
        results.append(CheckRecord(
            "kreiss-sup-on-inner-radius", "info", report.kreiss_C,
            params={"r": report.kreiss_C_radius},
            detail="kreiss sweep: the sup sits on the innermost radius and may lie beyond the grid"))
    # A skipped grid point leaves both sweeps at once and may lower either sup.
    for r, mu in report.skipped:
        results.append(CheckRecord(
            "skipped-grid-point", "skipped", params={"r": r, "angle": cmath.phase(mu)},
            detail="singular point left out of the kreiss and strong sups"))
    # Abel summation gives (r-1) ||R(r mu)|| <= sup_n ||M_n(conj(mu) T)||, and the same
    # with the second means, so a mean constant below kreiss_C is an under-resolved sweep.
    for name in ("ukb_C", "kb2_C"):
        value = getattr(report, name)
        if value < report.kreiss_C * (1.0 - 1e-9):
            results.append(CheckRecord(
                "mean-sweep-below-kreiss", "info", value,
                params={"constant": name, "kreiss_C": report.kreiss_C},
                detail=f"{name} is below kreiss_C, which it bounds: the mean sweep is "
                       "under-resolved in n_max or angles"))
    # kreiss_C_upper is None, an empty cell, where no upper side is known.
    rows = [(name, getattr(report, name)) for name in
            ("kreiss_C", "kreiss_C_lower", "kreiss_C_upper", "ukb_C", "kb2_C", "kb2_sum_C",
             "strong_C")]
    return _emit(args, _config(args, entry), results,
                 {"constants.csv": (("constant", "value"), rows)})


def _cmd_claims(args) -> int:
    _check_sweep(args)
    dyadic_ladder(args.k_max)
    _count(args.probes, "n_probes", 1)
    entry = _operator_entry(args)
    report = kb2_constant(entry.spec, args.n_max, args.angles)
    constant = float(report.kb2_sum_C)
    claims = run_hilbert_claims(entry.spec, constant, n_probes=args.probes,
                                n_top=args.k_max, seed=args.seed)
    results = [CheckRecord("kb2-sum-constant", "info", constant), *claims]
    return _emit(args, _config(args, entry), results,
                 {"claims.csv": (CLAIM_COLUMNS, claims.rows)})


def _cmd_growth(args) -> int:
    entry = _operator_entry(args)
    series = entry.power_norms(args.k_max)
    fit = growth_fit(series, tuple(args.window))
    results = [CheckRecord("growth-fit", "info", params=fit.to_dict())]
    if args.operator == "shields":
        k_top = min(args.k_max, shields_certified_kmax(args.nmax_sum))
        envelope, rows = shields_envelope(series, args.epsilon, k_top)
        results.append(envelope)
    else:
        rows = [(int(k), float(v), None, None) for k, v in zip(series.k, series.values)]
    return _emit(args, _config(args, entry), results,
                 {"growth.csv": (GROWTH_COLUMNS, rows)})


def _cmd_reproduce(args) -> int:
    return reproduce(args.theorem_id, args.out, args.seed)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    handlers = {
        "construct": _cmd_construct,
        "powers": _cmd_powers,
        "cesaro": _cmd_cesaro,
        "kreiss": _cmd_kreiss,
        "claims": _cmd_claims,
        "growth": _cmd_growth,
        "reproduce": _cmd_reproduce,
    }
    try:
        _check_out(args.out)
        _count(args.seed, "--seed")  # numpy's seeded generators take no negative seed
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
