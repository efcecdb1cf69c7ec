"""Command-line entry point: experiments plus the netlist/DFT linter.

Usage::

    python -m repro table1            # Table I  (area overhead)
    python -m repro table2            # Table II (delay overhead)
    python -m repro table3            # Table III (power overhead)
    python -m repro table4            # Table IV (fanout optimization)
    python -m repro fig2 fig4 fig5    # figures
    python -m repro coverage          # Section IV coverage study
    python -m repro shift             # Section IV scan-shift power
    python -m repro ablation          # gating-size ablation
    python -m repro partial variation # ref. [3] and Section I studies
    python -m repro all               # every study above

    python -m repro lint s298                 # lint a catalog circuit
    python -m repro lint design.bench --format sarif
    python -m repro lint --all                # every catalog circuit
    python -m repro lint s838 --style flh     # DFT rule pack too

    python -m repro bench                     # fast kernels vs their oracles

    python -m repro atpg s5378                # two-phase fault-dropping ATPG
    python -m repro atpg --all --json         # every catalog circuit, JSON
    python -m repro atpg s38584 --processes 4 # sharded fault-sim pool

    python -m repro fsim s5378 --processes 2 --check-serial
                                              # sharded fault simulation,
                                              # asserted identical to serial

    python -m repro analyze s298              # static testability analysis
    python -m repro analyze --all --json      # SCOAP + untestable proofs

    python -m repro atpg s298 --trace run.json  # structured run trace
    python -m repro trace run.json              # validate a written trace

Each study runs in-process, its circuits one after another.  A study
that raises ends the run with its traceback and a non-zero exit, and
prints no partial table.

See ``python -m repro lint --help`` (and ``docs/lint.md``) for rule
selection, baselines and output formats; ``python -m repro bench
--help`` (and ``docs/performance.md``) for the kernel bench;
``docs/observability.md`` for the ``--trace`` run artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List

from .experiments import (
    ablation_sizing,
    coverage_study,
    fig2_decay,
    fig4_hold,
    fig5_timing,
    partial_study,
    shift_power,
    table1_area,
    table2_delay,
    table3_power,
    table4_fanout,
    variation_quality,
)

#: A study: a zero-argument call that returns its result; ``main``
#: prints the result's ``render()``.
Study = Callable[[], Any]

#: The paper's studies, each with the one set of parameters it is
#: reproduced at.  ``benchmarks/results/<name>.txt`` holds each
#: study's ``render()``, and ``benchmarks/test_claims.py`` checks both
#: that text and the claims the paper makes of it.
EXPERIMENTS: Dict[str, Study] = {
    "table1": table1_area.run,
    "table2": table2_delay.run,
    "table3": table3_power.run,
    "table4": lambda: table4_fanout.run(max_candidates=120),
    "fig2": fig2_decay.run,
    "fig4": fig4_hold.run,
    "fig5": fig5_timing.run,
    "coverage": coverage_study.run,
    "shift": shift_power.run,
    "ablation": ablation_sizing.run,
    "partial": partial_study.run,
    "variation": variation_quality.run,
}


def main(argv: List[str] | None = None) -> int:
    """Parse arguments and run the requested experiments (or the linter)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from .lint import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        from .perf.bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "atpg":
        from .fault.atpg_flow import atpg_main

        return atpg_main(argv[1:])
    if argv and argv[0] == "fsim":
        from .fault.sharded import fsim_main

        return fsim_main(argv[1:])
    if argv and argv[0] == "analyze":
        from .analysis import analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "trace":
        from .obs import trace_main

        return trace_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of the FLH delay-testing "
            "paper (DATE 2005)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiments to run",
    )
    from .obs import add_trace_argument, trace_session

    add_trace_argument(parser)
    args = parser.parse_args(argv)

    requested: List[str] = []
    for name in args.experiments:
        requested.extend(sorted(EXPERIMENTS) if name == "all" else [name])

    with trace_session(args.trace, "experiments", argv=list(argv),
                       extra={"experiments": requested}) as rec:
        for name in requested:
            print(f"== {name} ==")
            with rec.span("experiment", cat="experiment",
                          experiment=name):
                result = EXPERIMENTS[name]()
            print(result.render())
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
