"""Command-line front end.

Subcommands: construct | powers | cesaro | kreiss | claims | growth |
reproduce.  Every run writes a deterministic report.json into --out,
and --format csv adds the run's CSV tables next to it (reproduce always
writes both): the same flags and seed always produce byte-identical
files.  The exit status is 1 when any definite check failed, 2 when the
input is invalid, and 3 when a numerical kernel failed: the power
iteration of a structured operator above SVD_CAP stalled, a matrix to
be normed had a non-finite entry, a resolvent was singular, or a dense
size cap was exceeded.  Explicit matrices are normed by a Gram
eigensolve (operators._matrix_norm) and never stall.

KREISSLAB_THREADS is applied by the package import (kreisslab/__init__).
"""

from __future__ import annotations

import argparse
import cmath
import sys

from .cesaro import rotated_mean_norm_profile
from .constructions import CATALOG_NAMES, make_operator, shields_certified_kmax
from .errors import ConvergenceError, SingularError, SizeError, ValidationError
from .growth import growth_fit
from .kreiss import AnnulusGrid, kb2_constant, kreiss_constant, run_hilbert_claims
from .operators import WeightedShift, dimension, power_norms, spectral_norm
from .reports import CheckRecord, RunConfig, emit_report, summarize
from .reproduce import CLAIM_COLUMNS, GROWTH_COLUMNS, claim_row, reproduce, shields_envelope


def _parse_radii(text: str):
    return tuple(float(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreisslab",
        description="Numerical experiments on resolvent bounds, Cesaro means, "
                    "and power-norm growth of structured operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, operator=True):
        if operator:
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
        p.add_argument("--seed", type=int, default=0x5EED)
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
    p.add_argument("--seed", type=int, default=0x5EED)
    p.add_argument("--out", default=".")
    return parser


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


def _config(args, command, entry):
    return RunConfig(
        command=command,
        operator=entry.name,
        params=dict(entry.params),
        n_max=getattr(args, "n_max", None),
        k_max=getattr(args, "k_max", None),
        angles=getattr(args, "angles", None),
        radii=getattr(args, "radii", None),
        seed=args.seed,
        out=str(args.out),
        format=args.format,
    )


def _emit(args, config, records, tables):
    results = [record.to_dict() for record in records]
    emit_report(config, results, tables if args.format == "csv" else None, args.out)
    summary = summarize(results)
    print(f"{config.command}: {summary['checks']} records, "
          f"{summary['failed']} failed, {summary['vacuous_pass']} vacuous")
    return 0 if summary["all_passed"] else 1


def _cmd_construct(args) -> int:
    entry = _operator_entry(args)
    est = spectral_norm(entry.spec, tol=1e-10)
    results = [CheckRecord("operator-summary", "info", est.value,
                           detail=f"dimension={dimension(entry.spec)}; " + "; ".join(entry.notes))]
    rows = []
    if isinstance(entry.spec, WeightedShift):
        if entry.spec.weights is not None:
            rows = [(j + 1, float(w)) for j, w in enumerate(entry.spec.weights.values)]
        else:
            rows = [(j + 1, float(r)) for j, r in enumerate(entry.spec.ratios)]
    return _emit(args, _config(args, "construct", entry), results,
                 {"operator.csv": (("index", "value"), rows)})


def _cmd_powers(args) -> int:
    entry = _operator_entry(args)
    series = power_norms(entry.spec, args.k_max)
    rows = [(int(k), float(v), m) for k, v, m in zip(series.k, series.values, series.methods)]

    results = [CheckRecord("power-norms", "info", float(series.values.max()),
                           detail=f"k <= {args.k_max}")]
    return _emit(args, _config(args, "powers", entry), results,
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
    return _emit(args, _config(args, "cesaro", entry), results,
                 {"means.csv": (("n", "norm_M1", "norm_M2", "sup_lambda"), rows)})


def _cmd_kreiss(args) -> int:
    entry = _operator_entry(args)
    grid = AnnulusGrid(args.radii, args.angles) if args.radii else AnnulusGrid.default(args.angles)
    if args.k_max < 1:
        raise ValidationError("k_max must be at least 1")
    base = kreiss_constant(entry.spec, grid, args.k_max)  # the plain and strong sweeps in one pass
    kb2 = kb2_constant(entry.spec, args.n_max, args.angles)
    merged = base.to_dict()
    merged.update({
        "ukb_C": kb2.ukb_C,
        "kb2_C": kb2.kb2_C,
        "kb2_sum_C": kb2.kb2_sum_C,
        "n_max": args.n_max,
    })
    results = [CheckRecord("kreiss-report", "info", params=merged)]
    if base.kreiss_C_radius == min(grid.radii):
        results.append(CheckRecord(
            "kreiss-sup-on-inner-radius", "info", base.kreiss_C,
            params={"r": base.kreiss_C_radius},
            detail="kreiss sweep: the sup sits on the innermost radius and may lie beyond the grid"))
    # A skipped grid point may lower its sweep's supremum: one no-verdict record each.
    for sweep, points in (("kreiss", base.skipped), ("strong", base.strong_skipped)):
        for r, mu in points:
            results.append(CheckRecord(
                "skipped-grid-point", "skipped",
                params={"sweep": sweep, "r": r, "angle": cmath.phase(mu)},
                detail=f"{sweep} sweep: singular point left out of the sup"))
    rows = [(name, merged[name]) for name in
            ("kreiss_C", "ukb_C", "kb2_C", "kb2_sum_C", "strong_C")]
    return _emit(args, _config(args, "kreiss", entry), results,
                 {"constants.csv": (("constant", "value"), rows)})


def _cmd_claims(args) -> int:
    entry = _operator_entry(args)
    report = kb2_constant(entry.spec, args.n_max, args.angles)
    constant = float(report.kb2_sum_C)
    claims = run_hilbert_claims(entry.spec, constant, n_probes=args.probes,
                                n_top=args.k_max, seed=args.seed)
    results = [CheckRecord("kb2-sum-constant", "info", constant), *claims]
    return _emit(args, _config(args, "claims", entry), results,
                 {"claims.csv": (CLAIM_COLUMNS, [claim_row(claim) for claim in claims])})


def _cmd_growth(args) -> int:
    entry = _operator_entry(args)
    series = power_norms(entry.spec, args.k_max)
    fit = growth_fit(series, tuple(args.window))
    results = [CheckRecord("growth-fit", "info", params=fit.to_dict())]
    if args.operator == "shields":
        k_top = min(args.k_max, shields_certified_kmax(args.nmax_sum))
        envelope, rows = shields_envelope(series, args.epsilon, k_top)
        results.append(envelope)
    else:
        rows = [(int(k), float(v), None, None) for k, v in zip(series.k, series.values)]
    return _emit(args, _config(args, "growth", entry), results,
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
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
