"""Batch front end: zero tables, audits, reports, and static plots.

Exit codes are exhaustive and disjoint:
    0  success (all verdicts passing or merely flagged)
    1  audit failure (any FAIL or DISTINCT verdict)
    2  usage error (bad flags, bad config, empty plot range, unusable
       output path)
    3  cache corruption (checksum or structure mismatch)
    4  numerical non-convergence

Errors and warnings go to stderr as one ``xispec: ...`` line each.  Each
subcommand takes only the options it reads (``config.COMMAND_OPTIONS``).

The Hadamard audit compares the closed-form product, with no fitted
constant, against xi at 21 points of [-1, 2] at each truncation the zeros
allow, and passes when every misfit is within its derived bound
(``hadamard.fitted_misfit``); its residual is the largest misfit/bound.

All outputs are deterministic: reports are canonical JSON with sorted
keys, plots are hand-rendered SVG, and the zero scan runs in one thread,
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .carlson import VANISH_TOL, Conclusion, PrefactorFit, audit_difference, audit_eq9
from .config import COMMAND_OPTIONS, ConfigError, RunConfig, build_config, parse_option
from .coupling import CLAIMED_NORM_COEFF, STANDARD_NORM_COEFF, audit_eq5
from .errors import (
    AccuracyError,
    CacheCorruptionError,
    DivergenceError,
    NonConvergenceError,
    RealnessError,
    XispecError,
)
from .hadamard import ProductSpec, audit_coincidence, fitted_misfit, tail_sum, zero_sum_residual
from .report import (
    AuditReport,
    Verdict,
    report_csv_rows,
    write_aggregate,
    write_report,
)
from .specfun import BesselOrder, EM_ORDER_CAP, EM_TERMS_CAP, hardy_z_method, xi, xi_critical
from .zeros import (
    CriticalZero,
    ZeroCache,
    format_rows,
    parse_rows,
    scan_zeros,
    zero_count_estimate,
)

EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CACHE_CORRUPTION = 3
EXIT_NUMERICAL = 4

HADAMARD_TRUNCATIONS = (50, 100, 200, 400, 800)
COINCIDENCE_PROBES = 5
CARLSON_INTEGER_COUNT = 10
CARLSON_FIT_SMAX = 10.0
CARLSON_FIT_SAMPLES = 51

#: Orders of the eq5 ratio audit and its plot: real 0.1..0.9, then
#: imaginary 0.5, 1, 2.
EQ5_ORDERS = tuple(
    [BesselOrder.real_order(k / 10.0) for k in range(1, 10)]
    + [BesselOrder.imaginary_order(m) for m in (0.5, 1.0, 2.0)]
)

_AUDIT_NAMES = ("eq5", "eq9", "hadamard", "coincidence", "carlson")


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict_text(verdict: Verdict) -> str:
    if not _use_color():
        return verdict.value
    color = {
        Verdict.PASS: "32",
        Verdict.CONSISTENT_UP_TO_CONSTANT: "32",
        Verdict.COINCIDE: "32",
        Verdict.FAIL: "31",
        Verdict.DISTINCT: "31",
        Verdict.INCONCLUSIVE: "33",
        Verdict.NOT_APPLICABLE: "33",
    }[verdict]
    return f"\x1b[{color}m{verdict.value}\x1b[0m"


def _t_for_zero_count(count: int) -> float:
    """Smallest t whose asymptotic zero count comfortably covers `count`."""
    lo, hi = 10.0, 10.0
    while zero_count_estimate(hi) < count + 2:
        hi *= 2.0
        if hi > 1e6:
            break
    while hi - lo > 0.5:
        mid = 0.5 * (lo + hi)
        if zero_count_estimate(mid) < count + 2:
            lo = mid
        else:
            hi = mid
    return hi + 2.0


def _scan_height(cfg: RunConfig, need_count: int | None) -> float:
    """cfg.t_max, raised to cover need_count zeros when that is given."""
    if need_count is None:
        return cfg.t_max
    return max(cfg.t_max, _t_for_zero_count(need_count))


def _gather_zeros(cfg: RunConfig, need_count: int | None = None) -> list[CriticalZero]:
    """Zeros up to cfg.t_max (or covering need_count), via cache when valid."""
    t_max = _scan_height(cfg, need_count)
    if cfg.cache and os.path.exists(cfg.cache):
        cache = ZeroCache.load(cfg.cache)  # corruption propagates: exit 3
        if cache.matches(t_max, cfg.tol):
            zeros = [z for z in cache.zeros if z.gamma <= t_max]
            if need_count is None or len(zeros) >= need_count:
                return zeros
    zeros = scan_zeros(t_max, cfg.tol)
    while need_count is not None and len(zeros) < need_count:
        t_max *= 1.15
        zeros = scan_zeros(t_max, cfg.tol)
    if cfg.cache:
        # Work with the serialized precision from the start, so this run's
        # outputs are byte-identical to a later cache-hitting run's.
        rows = format_rows(zeros)
        zeros = parse_rows(rows, cfg.cache)
        ZeroCache(t_max=t_max, tol=cfg.tol, zeros=zeros).save(cfg.cache, rows)
    return zeros


def _product_zero_count(cfg: RunConfig) -> int:
    """Zeros the product audits need: the largest truncation, capped by n_zeros."""
    return min(max(HADAMARD_TRUNCATIONS), cfg.n_zeros)


class _Run:
    """One command: its configuration, the zeros its product audits share and
    the eq9 fit its eq9 and Carlson audits share.

    Both are computed on first use, so audits that need no zeros run (and
    write their reports) before a scan or a cache read can fail.
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg

    @functools.cached_property
    def zeros(self) -> list[CriticalZero]:
        return _gather_zeros(self.cfg, need_count=_product_zero_count(self.cfg))

    @functools.cached_property
    def eq9_fit(self) -> PrefactorFit:
        return audit_eq9(CARLSON_FIT_SMAX, CARLSON_FIT_SAMPLES)


# ------------------------------- audits -------------------------------


def _run_eq5(run: _Run) -> tuple[AuditReport, list[str]]:
    audits, report = audit_eq5(list(EQ5_ORDERS))
    rows = ["order_kind,order_magnitude,quadrature,closed_form,ratio,verdict,error"]
    for a in audits:
        rows.append(
            f"{a.order.kind.value},{a.order.magnitude:.12g},"
            f"{'' if a.quadrature_value is None else format(a.quadrature_value, '.12g')},"
            f"{'' if a.paper_closed_form is None else format(a.paper_closed_form, '.12g')},"
            f"{'' if a.ratio is None else format(a.ratio, '.12g')},"
            f"{a.verdict.value},{a.error}"
        )
    return report, rows


def _run_eq9(run: _Run) -> tuple[AuditReport, list[str]]:
    fit = run.eq9_fit
    report = AuditReport(
        name="log-linear-exponential-fit",
        params={
            "s_max": CARLSON_FIT_SMAX,
            "samples": CARLSON_FIT_SAMPLES,
            "log_C": fit.B,
            "A": fit.D,
            "note": "residual is the finding; no pass/fail applies",
        },
        measured=[math.exp(fit.B), fit.D],
        reference=[],
        ratio_or_residual=fit.max_residual,
        tolerance=0.0,
        verdict=Verdict.NOT_APPLICABLE,
        provenance="eq9",
    )
    rows = [
        "C,A,max_log_residual",
        f"{math.exp(fit.B):.12g},{fit.D:.12g},{fit.max_residual:.12g}",
    ]
    return report, rows


def _hadamard_curve(
    zeros: list[CriticalZero],
    grid: tuple[int, ...] = HADAMARD_TRUNCATIONS,
    min_points: int = 1,
) -> tuple[ProductSpec, list[int], list[float], list[float]]:
    """(spec, truncations, misfits, bounds) for the truncations in grid.

    ConfigError if fewer than min_points truncations fit the zeros.
    """
    truncations = [n for n in grid if n <= len(zeros)]
    if len(truncations) < min_points:
        raise ConfigError(
            f"the product needs at least {grid[min_points - 1]} zeros, "
            f"got {len(zeros)}; raise --n-zeros or --t-max"
        )
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros))
    xs = np.linspace(-1.0, 2.0, 21)
    targets = np.array([xi(complex(x, 0.0)).real for x in xs])
    misfits, bounds = zip(*(fitted_misfit(xs, targets, spec, n) for n in truncations))
    return spec, truncations, list(misfits), list(bounds)


def _run_hadamard(run: _Run) -> tuple[AuditReport, list[str]]:
    zeros = run.zeros
    spec, truncations, misfits, bounds = _hadamard_curve(zeros)
    heights = [tail_sum(spec, n)[0] for n in truncations]
    residuals = [zero_sum_residual(spec, n) for n in truncations]
    worst = max(m / b for m, b in zip(misfits, bounds))
    report = AuditReport(
        name="hadamard-product-misfit",
        params={
            "truncations": truncations,
            "tail_heights": heights,
            "zero_sum_residuals": residuals,
            "zeros_available": len(zeros),
            "sample_interval": [-1.0, 2.0],
            "samples": 21,
        },
        measured=misfits,
        reference=bounds,
        ratio_or_residual=worst,
        tolerance=1.0,
        verdict=Verdict.PASS if all(m <= b for m, b in zip(misfits, bounds)) else Verdict.FAIL,
        provenance="hadamard",
    )
    rows = ["n_factors,max_relative_misfit,misfit_bound,tail_height,zero_sum_residual"]
    rows += [
        f"{n},{m:.12g},{b:.12g},{t:.12g},{r:.12g}"
        for n, m, b, t, r in zip(truncations, misfits, bounds, heights, residuals)
    ]
    return report, rows


def _run_coincidence(run: _Run) -> tuple[AuditReport, list[str]]:
    cfg, zeros = run.cfg, run.zeros
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros))
    n = min(len(zeros), cfg.n_zeros)
    # Probe only zeros the truncated product keeps as factors.
    probes = [z.gamma for z in zeros[: min(COINCIDENCE_PROBES, n)]]
    if cfg.perturb != 0.0:
        probes[0] += cfg.perturb
    report = audit_coincidence(spec, probes, n)
    report.params["perturb"] = cfg.perturb
    rows = ["probe,product_magnitude,is_member"]
    rows += [
        f"{p:.15g},{v:.6e},{m}"
        for p, v, m in zip(probes, report.measured, report.params["probe_is_member"])
    ]
    return report, rows


def _run_carlson(run: _Run) -> tuple[AuditReport, list[str]]:
    cfg = run.cfg
    audit = audit_difference(CARLSON_INTEGER_COUNT, run.eq9_fit, scale=float(cfg.m))
    verdict_map = {
        Conclusion.IDENTICALLY_ZERO_IMPLIED: Verdict.PASS,
        Conclusion.CONDITIONS_NOT_MET: Verdict.INCONCLUSIVE,
        Conclusion.INCONCLUSIVE: Verdict.INCONCLUSIVE,
    }
    cv = audit.verdict
    report = AuditReport(
        name="difference-function-growth",
        params={
            "conclusion": cv.conclusion.value,
            "alpha_slope": cv.growth.alpha.slope,
            "beta_slope": cv.growth.beta.slope,
            "beta_margin": cv.margin,
            "alpha_finite": cv.alpha_finite,
            "beta_below_pi": cv.beta_below_pi,
            "integer_vanishing": cv.vanishing,
            "integer_scale_m": cfg.m,
            "fit_log_C": audit.eq9_fit.B,
            "fit_A": audit.eq9_fit.D,
            "a": audit.a,
            "b": audit.b,
        },
        measured=list(audit.residuals),
        reference=[VANISH_TOL],
        ratio_or_residual=max(audit.residuals) if audit.residuals else 0.0,
        tolerance=VANISH_TOL,
        verdict=verdict_map[cv.conclusion],
        provenance="carlson",
    )
    rows = ["n,abs_difference"]
    rows += [
        f"{cfg.m * (k + 1)},{r:.12g}" for k, r in enumerate(audit.residuals)
    ]
    return report, rows


_AUDIT_RUNNERS = {
    "eq5": _run_eq5,
    "eq9": _run_eq9,
    "hadamard": _run_hadamard,
    "coincidence": _run_coincidence,
    "carlson": _run_carlson,
}


def _metadata(cfg: RunConfig) -> dict:
    t_scan = _scan_height(cfg, _product_zero_count(cfg))
    z_method, z_terms = hardy_z_method(t_scan)
    return {
        "tool": "xispec",
        "version": __version__,
        "em_order_cap": EM_ORDER_CAP,
        "em_terms_cap": EM_TERMS_CAP,
        "z_method_at_scan_top": z_method,
        "z_terms_at_scan_top": z_terms,
        "norm_coefficients": {
            "claimed": CLAIMED_NORM_COEFF,
            "standard": STANDARD_NORM_COEFF,
        },
        "config": {k: getattr(cfg, k) for k in ("t_max", "tol", "n_zeros", "perturb", "m")},
    }


# ----------------------------- subcommands -----------------------------


def _cmd_zeros(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    # Opened before the scan, so an unusable path fails before any output.
    out = (
        open(cfg.out, "w", encoding="utf-8", newline="\n")
        if cfg.out
        else contextlib.nullcontext()
    )
    with out as handle:
        zeros = _gather_zeros(cfg)
        rows = format_rows(zeros)
        for row in rows:
            print(row)
        if handle is not None:
            handle.write("n,gamma,abs_err\n")
            handle.write("".join(row + "\n" for row in rows))
    check = zero_count_estimate(cfg.t_max)
    print(
        f"# {len(zeros)} zeros <= {cfg.t_max:g} (count estimate {check})",
        file=sys.stderr,
    )
    return EXIT_OK


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _cmd_audit(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    names = list(_AUDIT_NAMES) if args.which == "all" else [args.which]
    out_dir = cfg.out or "reports"
    os.makedirs(out_dir, exist_ok=True)

    run = _Run(cfg)
    reports: list[AuditReport] = []
    for name in names:
        report, rows = _AUDIT_RUNNERS[name](run)
        reports.append(report)
        if cfg.format == "json":
            write_report(report, os.path.join(out_dir, f"audit_{name}.json"))
        else:
            _write_lines(os.path.join(out_dir, f"audit_{name}.csv"), rows)
        flag = " (flagged)" if report.verdict in (
            Verdict.INCONCLUSIVE,
            Verdict.NOT_APPLICABLE,
        ) else ""
        print(
            f"{report.name}: {_verdict_text(report.verdict)}{flag} "
            f"[residual {report.ratio_or_residual:.6g}, tol {report.tolerance:g}]"
        )

    if args.which == "all":
        if cfg.format == "json":
            write_aggregate(
                reports, _metadata(cfg), os.path.join(out_dir, "audit_all.json")
            )
        else:
            _write_lines(os.path.join(out_dir, "audit_all.csv"), report_csv_rows(reports))

    if any(r.failed for r in reports):
        return EXIT_AUDIT_FAILURE
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}, expected a:b") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad range {text!r}, expected finite a:b")
    if not (hi > lo):
        raise ConfigError(f"empty plot range {text!r}")
    return lo, hi


def _cmd_plot(args: argparse.Namespace) -> int:
    from .svgplot import render_line_plot

    cfg = _config_from_args(args)
    out = cfg.out or f"{args.target}.svg"
    if args.target == "xi-critical":
        lo, hi = _parse_range(args.t or "0:30")
        ts = np.linspace(lo, hi, 601)
        ys = [xi_critical(float(t)) for t in ts]
        svg = render_line_plot(
            list(ts), ys, title="Xi on the critical line", xlabel="t",
            ylabel="Xi(t)",
        )
    elif args.target == "eq5-ratio":
        audits, _ = audit_eq5(list(EQ5_ORDERS))
        xs = list(range(1, len(audits) + 1))
        ys = [a.ratio if a.ratio is not None else float("nan") for a in audits]
        svg = render_line_plot(
            xs, ys, title="norm-integral ratio per order",
            xlabel="order index (real 0.1..0.9, then imaginary 0.5,1,2)",
            ylabel="quadrature / closed form",
        )
    elif args.target == "product-convergence":
        _, truncations, misfits, _ = _hadamard_curve(
            _Run(cfg).zeros, grid=(10, 25) + HADAMARD_TRUNCATIONS, min_points=2
        )
        svg = render_line_plot(
            [float(n) for n in truncations],
            misfits,
            title="product misfit vs truncation",
            xlabel="factors",
            ylabel="max relative misfit",
            logy=True,
        )
    elif args.target == "residuals":
        audit = audit_difference(
            CARLSON_INTEGER_COUNT, _Run(cfg).eq9_fit, scale=float(cfg.m)
        )
        svg = render_line_plot(
            [float(cfg.m * (k + 1)) for k in range(len(audit.residuals))],
            list(audit.residuals),
            title="difference-function residuals at integer points",
            xlabel="n",
            ylabel="|d(n)|",
            logy=True,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown plot target {args.target!r}")

    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    paths = args.paths
    # In a directory, `audit all` leaves each audit both in its own file and
    # in audit_all.json; a directory listing shows each distinct entry once.
    seen: set[str] | None = None
    if not paths:
        out_dir = args.out or "reports"
        try:
            names = os.listdir(out_dir)
        except OSError as exc:
            raise ConfigError(f"{out_dir}: {exc}") from exc
        paths = sorted(os.path.join(out_dir, p) for p in names if p.endswith(".json"))
        seen = set()
    failed = False
    for path in paths:
        # A missing or malformed file is a bad argument, never an audit failure.
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            entries = payload["audits"] if "audits" in payload else [payload]
            reports = [AuditReport.from_dict(entry) for entry in entries]
        except KeyError as exc:
            raise ConfigError(f"{path}: missing key {exc}") from exc
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if seen is not None:
            keys = [r.to_json() for r in reports]
            reports = [r for r, key in zip(reports, keys) if key not in seen]
            seen.update(keys)
        for report in reports:
            failed = failed or report.failed
            print(
                f"{os.path.basename(path)}: {report.name}: "
                f"{_verdict_text(report.verdict)} "
                f"[residual {report.ratio_or_residual:.6g}]"
            )
    return EXIT_AUDIT_FAILURE if failed else EXIT_OK


# ------------------------------- plumbing -------------------------------


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _add_common_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags of the RunConfig options ``command`` reads, and --config."""
    # No argparse type: parse_option parses flag text as it parses file text.
    for option in fields(RunConfig):
        if option.name in COMMAND_OPTIONS[command]:
            parser.add_argument(_flag(option.name), dest=option.name, help=option.metadata["help"])
    parser.add_argument("--config", help="flat key = value file")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        name: parse_option(name, getattr(args, name), _flag(name))
        for name in COMMAND_OPTIONS[args.command]
        if getattr(args, name) is not None
    }
    return build_config(args.config, overrides, args.command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xispec",
        description=(
            "critical-line zeros of the completed xi function and numerical "
            "audits of the coupling-spectrum identification"
        ),
    )
    parser.add_argument("--version", action="version", version=f"xispec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeros = sub.add_parser("zeros", help="scan and refine critical-line zeros")
    _add_common_flags(p_zeros, "zeros")
    p_zeros.set_defaults(func=_cmd_zeros)

    p_audit = sub.add_parser("audit", help="run one audit or all of them")
    p_audit.add_argument("which", choices=_AUDIT_NAMES + ("all",))
    _add_common_flags(p_audit, "audit")
    p_audit.set_defaults(func=_cmd_audit)

    p_plot = sub.add_parser("plot", help="emit a static SVG plot")
    p_plot.add_argument(
        "target",
        choices=("xi-critical", "eq5-ratio", "product-convergence", "residuals"),
    )
    p_plot.add_argument("--t", default=None, help="range a:b for xi-critical")
    _add_common_flags(p_plot, "plot")
    p_plot.set_defaults(func=_cmd_plot)

    p_report = sub.add_parser("report", help="summarize existing report files")
    p_report.add_argument("paths", nargs="*")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"xispec: warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except ConfigError as exc:
        print(f"xispec: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CacheCorruptionError as exc:
        print(f"xispec: cache corruption: {exc}", file=sys.stderr)
        return EXIT_CACHE_CORRUPTION
    except (
        NonConvergenceError,
        AccuracyError,
        DivergenceError,
        RealnessError,
    ) as exc:
        print(f"xispec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except XispecError as exc:
        print(f"xispec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # Every read maps its own OSError (config and report files to 2, the
        # cache to 3), so one that gets here comes from an output path.
        print(f"xispec: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
