"""Command-line front end.

Subcommands:
  analyze    run a subset of the finiteness conditions (i)-(v) for one map
             and emit an equivalence report (JSON + CSV companions)
  verify     run a module's invariant suite and print one line per check
  sweep      tabulate partial totals and classifications over (lambda, J)
  cusp-demo  build the inward-cusp polygon and contrast its chord-arc and
             internal chord-arc constants

Exit codes: 0 success, 1 invalid input or configuration, 2 numerical failure
(for analyze: any failed condition, once reported), 3 a verify check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from . import analyzer, report as report_io
from .chordarc import PairSampler, chordarc_constant, cusp_domain, \
    internal_chordarc_constant, save_vertices
from .circle_map import catalog
from .errors import CircleEnergyError, DomainError, ValidationError
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_CHECKS_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors raise instead of calling exit(2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # stock argparse only treats bare negative numbers as values, so
        # "--lambda -0.5,0,1,2" would be read as an unknown option
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message):
        raise ValidationError(message)


def _load_map_spec(arg: str) -> dict:
    """Resolve --map: a JSON spec file, or the name of a catalog family."""
    path = Path(arg)
    if path.is_file():
        try:
            spec = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:   # not JSON, or not UTF-8 text
            raise ValidationError(f"map spec {arg}: not valid JSON ({exc})") from None
        if not isinstance(spec, dict):
            raise ValidationError(f"map spec {arg}: expected a JSON object")
        return spec
    families = catalog()
    if arg in families:
        return families[arg].to_spec()
    raise ValidationError(
        f"--map expects a JSON spec file or a family name from "
        f"{sorted(families)}, got {arg!r}")


def _split(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in _split(text))
    except ValueError:
        raise ValidationError(f"--lambda expects comma-separated reals, got {text!r}")


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    default = {f.name: f.default for f in dataclasses.fields(analyzer.AnalysisConfig)}
    p.add_argument("--map", required=True, metavar="FILE",
                   help="JSON map spec {kind, params, base_point_image_angle} "
                        "or a built-in family name (e.g. identity, power).")
    p.add_argument("--lambda", dest="lambdas", metavar="X[,X...]",
                   default=",".join(map(str, default["lambdas"])),
                   help="comma-separated exponents, each > -1 (default: %(default)s)")
    p.add_argument("--conditions", default=",".join(default["conditions"]),
                   metavar="LIST",
                   help="comma-separated subset of the conditions (default: %(default)s)")
    for flag, name, what in (
            ("--levels", "j_dyadic", "truncation level J for the dyadic sums (iii)-(v)"),
            ("--disk-levels", "j_disk", "Whitney truncation J for the disk energies (i)/(ii)"),
            ("--n-boundary", "n_boundary", "boundary quadrature nodes of the extension"),
            ("--gauss-order", "gauss_order", "Gauss-Legendre order per Whitney cell axis")):
        lo, hi = analyzer.BOUNDS[name]
        p.add_argument(flag, dest=name, type=int, default=default[name], metavar="N",
                       help=f"{what}, in [{lo}, {hi}] (default: %(default)s)")
    p.add_argument("--seed", type=int, default=default["seed"], metavar="N",
                   help="seed echoed into the report (sampling uses it where "
                        "randomness exists; the conditions themselves are "
                        "deterministic)")


def _config_from_args(args) -> analyzer.AnalysisConfig:
    return analyzer.AnalysisConfig(
        map_spec=_load_map_spec(args.map),
        lambdas=_parse_lambdas(args.lambdas),
        conditions=_split(args.conditions),
        j_disk=args.j_disk, j_dyadic=args.j_dyadic,
        n_boundary=args.n_boundary, gauss_order=args.gauss_order,
        seed=args.seed,
        out=getattr(args, "out", None),
    )


def _cmd_analyze(args) -> int:
    config = _config_from_args(args)
    doc = analyzer.analyze(config)
    if args.out is None:
        sys.stdout.write(report_io.render_report(doc))
    else:
        for lam_key, block in sorted(doc["results"].items(), key=lambda kv: float(kv[0])):
            print(f"lambda={lam_key}: verdict {block['verdict']}")
        print(f"wrote report.json, levels.csv, ratios.csv under {args.out}")
    conds = [e for block in doc["results"].values() for e in block["conditions"].values()]
    return EXIT_NUMERICAL if any(e["status"] == "failed" for e in conds) else EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    rows = analyzer.sweep(config)
    print(f"wrote {len(rows)} rows to {Path(args.out) / 'sweep.csv'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, n_boundary=args.n_boundary)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"[{mark}] {r.suite}: {r.name}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failed += 0 if r.passed else 1
    total = len(results)
    print(f"{total - failed}/{total} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECKS_FAILED


def _cmd_cusp_demo(args) -> int:
    domain = cusp_domain(args.resolution)
    sampler = PairSampler(seed=args.seed)
    boundary_ratio = chordarc_constant(domain, sampler)
    internal_ratio = internal_chordarc_constant(domain, sampler)
    doc = {
        "resolution": args.resolution,
        "seed": args.seed,
        "vertex_count": int(domain.vertices.shape[0]),
        "perimeter": domain.perimeter,
        "reflex_vertex_count": len(domain.reflex_vertices),
        "chordarc_constant": boundary_ratio,
        "internal_chordarc_constant": internal_ratio,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_vertices(domain, out / "cusp_vertices.txt")
        with open(out / "cusp_report.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote cusp_vertices.txt, cusp_report.json under {args.out}")
    print(f"chord-arc constant      {boundary_ratio:.6g}")
    print(f"internal chord-arc      {internal_ratio:.6g}")
    print("the boundary ratio blows up at the cusp; the internal one does not")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circle-energy", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run conditions (i)-(v) and emit a report")
    _add_analysis_flags(p_an)
    p_an.add_argument("--out", metavar="DIR", default=None,
                      help="output directory; omit to print the report to stdout")
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=0, metavar="N",
                       help="seed for sampled checks (default: 0)")
    p_ver.add_argument("--n-boundary", type=int, default=None, metavar="N",
                       help="override boundary nodes in the poisson suite; "
                            "256 demonstrates the coarse-quadrature failure")
    p_ver.set_defaults(func=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="tabulate totals/classes over (lambda, J)")
    _add_analysis_flags(p_sw)
    p_sw.add_argument("--out", metavar="DIR", required=True,
                      help="output directory for sweep.csv")
    p_sw.set_defaults(func=_cmd_sweep)

    p_cd = sub.add_parser("cusp-demo",
                          help="chord-arc vs internal chord-arc on the cusp polygon")
    p_cd.add_argument("--resolution", type=int, default=64, metavar="N",
                      help="boundary points per unit length (default: 64)")
    p_cd.add_argument("--seed", type=int, default=0, metavar="N",
                      help="pair-sampler seed (default: 0)")
    p_cd.add_argument("--out", metavar="DIR", default=None,
                      help="write cusp_vertices.txt and cusp_report.json here")
    p_cd.set_defaults(func=_cmd_cusp_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CircleEnergyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
