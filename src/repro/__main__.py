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
    python -m repro quick             # fast subset (small circuits)

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

    python -m repro table1 --processes 4      # fan circuits across workers

    python -m repro atpg s298 --trace run.json  # structured run trace
    python -m repro trace run.json              # validate a written trace

See ``python -m repro lint --help`` (and ``docs/lint.md``) for rule
selection, baselines and output formats; ``python -m repro bench
--help`` (and ``docs/performance.md``) for the kernel bench;
``docs/observability.md`` for the ``--trace`` run artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

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

QUICK_CIRCUITS = ("s298", "s344", "s382")

#: A study: ``(processes, task_timeout) -> result``; ``main`` prints
#: the result's ``render()``.  Only the per-circuit tables 1-3 fan
#: out -- the rest ignore both knobs.
Study = Callable[[int, Optional[float]], Any]

#: The paper's studies, each with the one set of parameters it is
#: reproduced at.  ``benchmarks/results/<name>.txt`` holds each
#: study's ``render()``, and ``benchmarks/test_claims.py`` checks both
#: that text and the claims the paper makes of it.
EXPERIMENTS: Dict[str, Study] = {
    "table1": lambda p, t: table1_area.run(processes=p, task_timeout=t),
    "table2": lambda p, t: table2_delay.run(processes=p, task_timeout=t),
    "table3": lambda p, t: table3_power.run(processes=p, task_timeout=t),
    "table4": lambda p, t: table4_fanout.run(max_candidates=120),
    "fig2": lambda p, t: fig2_decay.run(),
    "fig4": lambda p, t: fig4_hold.run(),
    "fig5": lambda p, t: fig5_timing.run(),
    "coverage": lambda p, t: coverage_study.run(),
    "shift": lambda p, t: shift_power.run(),
    "ablation": lambda p, t: ablation_sizing.run(),
    "partial": lambda p, t: partial_study.run(),
    "variation": lambda p, t: variation_quality.run(),
}

QUICK: Dict[str, Study] = {
    "table1": lambda p, t: table1_area.run(
        circuits=QUICK_CIRCUITS, processes=p, task_timeout=t),
    "table2": lambda p, t: table2_delay.run(
        circuits=QUICK_CIRCUITS, processes=p, task_timeout=t),
    "table3": lambda p, t: table3_power.run(
        circuits=QUICK_CIRCUITS, n_vectors=40, processes=p, task_timeout=t),
    "table4": lambda p, t: table4_fanout.run(
        circuits=("s838",), n_vectors=20, max_candidates=10),
    "fig5": EXPERIMENTS["fig5"],
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
        choices=sorted(EXPERIMENTS) + ["all", "quick"],
        help="experiments to run",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes for the per-circuit experiments "
             "(tables 1-3); 1 = run serially in-process",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-circuit timeout in seconds when --processes > 1 "
             "(a timed-out circuit becomes an error row)",
    )
    from .obs import add_trace_argument, trace_session

    add_trace_argument(parser)
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error(f"--processes must be >= 1, got {args.processes}")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error(f"--task-timeout must be > 0, got {args.task_timeout}")

    requested: List[str] = []
    for name in args.experiments:
        if name == "all":
            requested.extend(sorted(EXPERIMENTS))
        elif name == "quick":
            requested.append("quick")
        else:
            requested.append(name)

    with trace_session(args.trace, "experiments", argv=list(argv),
                       extra={"experiments": requested}) as rec:
        for name in requested:
            if name == "quick":
                for key in sorted(QUICK):
                    print(f"== {key} (quick) ==")
                    with rec.span("experiment", cat="experiment",
                                  experiment=key, quick=True):
                        result = QUICK[key](args.processes,
                                            args.task_timeout)
                    print(result.render())
                    print()
                continue
            print(f"== {name} ==")
            with rec.span("experiment", cat="experiment",
                          experiment=name):
                result = EXPERIMENTS[name](args.processes, args.task_timeout)
            print(result.render())
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
