"""Command-line entry point.

Verbs:
  run <scenario-file>     integrate a scenario, write CSV/SVG/manifest
  sweep --pmax N          structure analysis for every odd p <= N
  analyze <system-file>   coupling-structure report for a saved system
  equilibria <system-file>  Newton search for static points

The global flag -v logs progress (each p of a sweep, with its wall
time and candidate count) to stderr; the files written do not change.

Exit codes: 0 success, 1 usage/config error or a system the analysis
refuses (degenerate spectrum, square-pattern violation), 2 divergence
detected, 3 assertion failure inside a sweep.  The default output
directory is $FPUALT_OUT_DIR, falling back to ./fpualt_out.
"""

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .coupling import PatternViolationError
from .scenarios import (analysis_report, equilibria_report, run_scenario,
                        sweep_odd_p, sweep_report_text)
from .spectral import DegenerateSpectrumError, load_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_SWEEP_FAIL = 3

_LOG = logging.getLogger("fpualt")


def _default_out_dir():
    return os.environ.get("FPUALT_OUT_DIR", "fpualt_out")


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``main`` runs many
    times in one process in the tests and the benchmark, and parsing
    leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="fpualt",
        description="Alternating-mass FPU chains: experiments and "
                    "coupling-structure analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a scenario file")
    run.add_argument("--out-dir", default=None)
    run.add_argument("--abs-tol", type=float, default=None)
    run.add_argument("--rel-tol", type=float, default=None)
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--sample-dt", type=float, default=None)

    sweep = sub.add_parser("sweep", help="analyse every odd p up to --pmax")
    sweep.add_argument("--pmax", type=int, default=47)
    sweep.add_argument("--a", type=float, default=0.01)
    sweep.add_argument("--out-dir", default=None)

    analyze = sub.add_parser("analyze", help="structure report for a system file")
    analyze.add_argument("system", help="path to a saved system file")
    analyze.add_argument("--out-dir", default=None)

    eq = sub.add_parser("equilibria", help="equilibrium search for a system file")
    eq.add_argument("system", help="path to a saved system file")
    eq.add_argument("--out-dir", default=None)
    return parser


def _out_dir(args):
    out = Path(args.out_dir or _default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(args, name, text):
    """Write a report into the output directory, echo it, and say where."""
    out = _out_dir(args) / name
    out.write_text(text)
    print(text, end="")
    print(f"wrote {out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    progress = logging.StreamHandler(sys.stderr) if args.verbose else None
    if progress:
        _LOG.addHandler(progress)
        _LOG.setLevel(logging.INFO)
    try:
        if args.verb == "run":
            overrides = {k: v for k, v in (
                ("abs_tol", args.abs_tol), ("rel_tol", args.rel_tol),
                ("t_end", args.t_end), ("sample_dt", args.sample_dt))
                if v is not None}
            # run_scenario makes the directory once the scenario passes
            result = run_scenario(args.scenario,
                                  args.out_dir or _default_out_dir(), overrides)
            print(f"{result.scenario.name}: {result.trajectory.status} "
                  f"(t_reached {result.trajectory.t_reached:g}, "
                  f"{result.trajectory.n_steps} steps)")
            print(f"  energy drift {result.manifest['energy_drift']:.3e}")
            for f in result.files:
                print(f"  wrote {f}")
            return EXIT_OK if result.exit_code == 0 else EXIT_DIVERGED

        if args.verb == "sweep":
            report = sweep_odd_p(p_max=args.pmax, a=args.a)
            _write_report(args, f"sweep_p{args.pmax}.txt", sweep_report_text(report))
            return EXIT_SWEEP_FAIL if report.failures else EXIT_OK

        sys_ = load_system(args.system)      # analyze or equilibria
        if args.verb == "analyze":
            suffix, text = "analysis", analysis_report(sys_)
        else:
            suffix, text = "equilibria", equilibria_report(sys_)
        _write_report(args, f"{Path(args.system).stem}_{suffix}.txt", text)
        return EXIT_OK
    except (OSError, ValueError, DegenerateSpectrumError,
            PatternViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if progress:
            _LOG.removeHandler(progress)
            _LOG.setLevel(logging.NOTSET)


if __name__ == "__main__":
    raise SystemExit(main())
