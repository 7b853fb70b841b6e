"""Command line interface: run / sweep / export."""

from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import runner
from .errors import ConfigError, FxhhwError
from .grids import AXES
from .pricing import SolutionField


def _load_config(path):
    if path.startswith("bundled:"):
        path = config_mod.bundled_config_path(path.split(":", 1)[1])
    return config_mod.from_yaml(path)


def _cmd_run(args):
    cfg = _load_config(args.config)
    report = runner.run(cfg, out_dir=args.out, save_field=args.save_field)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_sweep(args):
    report = runner.sweep(_load_config(args.config), axis=args.axis, ladder=args.ladder,
                          out_dir=args.out)
    sys.stdout.write(report.to_text())
    return 0


def _parse_at(text):
    """``'rd=0.1,rf=0.1'`` -> {axis: value}; every bad item is reported."""
    fixed, violations = {}, []
    for item in text.split(","):
        key, sep, val = (part.strip() for part in item.partition("="))
        try:
            if not sep or key not in AXES:
                raise ValueError
            fixed[key] = float(val)
        except ValueError:
            violations.append(f"--at item {item!r} is not axis=number "
                              f"(axis one of {', '.join(AXES)})")
    if violations:
        raise ConfigError(violations)
    return fixed


def _cmd_export(args):
    fixed = _parse_at(args.at) if args.at else {}
    field = SolutionField.load(args.result)
    n = runner.surface_export(field, args.slice, args.out, fixed=fixed)
    sys.stdout.write(f"wrote {n} rows to {args.out}\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="fxhhw",
        description="Price European FX options under Heston + two Hull-White "
        "rates with a localized Gaussian RBF-FD scheme.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one experiment config")
    pr.add_argument("config", help="YAML config path, or bundled:<name>")
    pr.add_argument("--out", default=None, help="output directory for CSV/report")
    pr.add_argument("--save-field", action="store_true", help="save the solved field (npz)")
    pr.set_defaults(func=_cmd_run)

    ps = sub.add_parser("sweep", help="refine one axis over a doubling ladder")
    ps.add_argument("config")
    ps.add_argument("--axis", default="s", choices=AXES)
    ps.add_argument("--ladder", default="8,16,32")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_sweep)

    pe = sub.add_parser("export", help="export a 2D slice of a saved field to CSV")
    pe.add_argument("result", help="saved field (.npz from run --save-field)")
    pe.add_argument("--slice", default="sv", help="axis pair, e.g. sv, rdrf, srd")
    pe.add_argument("--at", default=None, help="fixed coords, e.g. 'rd=0.1,rf=0.1'")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_export)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        for v in err.violations:
            sys.stderr.write(f"config error: {v}\n")
        return 2
    except FxhhwError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
