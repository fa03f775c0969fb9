"""Command-line interface.

One subcommand per experiment mode, each driven by a config file::

    stgreedy greedy-time --config cfg.txt [--out DIR] [--seed N]

Exit codes: 0 success, 2 config error, input the library rejects (a
bad field, mesh, quadrature or tolerance) or a path that cannot be read
or written, 3 refinement cap or termination failure.  Either failure
prints one line to stderr.
"""

import argparse
import sys

from .fem import FemError
from .fields import FieldError
from .harness import MODES, ConfigError, emit_report, parse_config, \
    run_experiment
from .mesh1d import GreedyCapError, MeshError
from .meshnd import MeshndError
from .polyspace import PolyspaceError
from .quadrature import QuadratureError
from .smoothness import SmoothnessError
from .spacetime import SpacetimeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3

# the library's own rejections of bad input
INPUT_ERRORS = (FieldError, MeshError, MeshndError, FemError, PolyspaceError,
                QuadratureError, SmoothnessError, SpacetimeError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stgreedy",
        description="Adaptive time-space approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run the {mode} experiment")
        sp.add_argument("--config", required=True, help="config file path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.mode != args.command:
            raise ConfigError(
                f"config mode {cfg.mode!r} does not match subcommand "
                f"{args.command!r}")
        if args.seed is not None:
            cfg.seed = args.seed
        rows, extras = run_experiment(cfg)
        paths = emit_report(rows, extras, cfg, out_dir=args.out)
    except (ConfigError, OSError, UnicodeDecodeError) as e:
        # also a path that cannot be read or written, or a config not in UTF-8
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GreedyCapError as e:
        print(f"termination failure: {e}", file=sys.stderr)
        return EXIT_CAP
    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
