"""Command-line entry point: experiments plus the netlist/DFT linter.

Usage::

    python -m repro table1            # Table I  (area overhead)
    python -m repro table2            # Table II (delay overhead)
    python -m repro table3            # Table III (power overhead)
    python -m repro table4            # Table IV (fanout optimization)
    python -m repro fig2 fig4 fig5    # figures
    python -m repro coverage          # Section IV coverage study
    python -m repro ablation          # gating-size ablation
    python -m repro all               # everything above
    python -m repro quick             # fast subset (small circuits)

    python -m repro lint s298                 # lint a catalog circuit
    python -m repro lint design.bench --format sarif
    python -m repro lint --all                # every catalog circuit
    python -m repro lint s838 --style flh     # DFT rule pack too

    python -m repro bench --quick             # time the tier-1 kernels
    python -m repro bench --quick --check-baseline   # CI smoke check

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
--help`` (and ``docs/performance.md``) for the benchmark harness;
``docs/observability.md`` for the ``--trace`` run artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .experiments import (
    ablation_sizing,
    coverage_study,
    fig2_decay,
    fig4_hold,
    fig5_timing,
    partial_study,
    table1_area,
    table2_delay,
    table3_power,
    table4_fanout,
    variation_quality,
)

QUICK_CIRCUITS = ("s298", "s344", "s382")


def _run_table4_quick(p: int, t: Optional[float]) -> None:
    print(table4_fanout.run(circuits=("s838",), n_vectors=20,
                            max_candidates=10).render())


# Each entry takes (processes, task_timeout); only the table 1-3
# drivers fan out -- the rest ignore both knobs.
EXPERIMENTS: Dict[str, Callable[[int, Optional[float]], None]] = {
    "table1": lambda p, t: print(
        table1_area.run(processes=p, task_timeout=t).render()
    ),
    "table2": lambda p, t: print(
        table2_delay.run(processes=p, task_timeout=t).render()
    ),
    "table3": lambda p, t: print(
        table3_power.run(processes=p, task_timeout=t).render()
    ),
    "table4": lambda p, t: print(
        table4_fanout.run(max_candidates=120).render()
    ),
    "fig2": lambda p, t: print(fig2_decay.run().render()),
    "fig4": lambda p, t: print(fig4_hold.run().render()),
    "fig5": lambda p, t: print(fig5_timing.run().render()),
    "coverage": lambda p, t: print(coverage_study.run().render()),
    "ablation": lambda p, t: print(ablation_sizing.run().render()),
    "partial": lambda p, t: print(partial_study.run().render()),
    "variation": lambda p, t: print(variation_quality.run().render()),
}

QUICK: Dict[str, Callable[[int, Optional[float]], None]] = {
    "table1": lambda p, t: print(
        table1_area.run(circuits=QUICK_CIRCUITS,
                        processes=p, task_timeout=t).render()
    ),
    "table2": lambda p, t: print(
        table2_delay.run(circuits=QUICK_CIRCUITS,
                         processes=p, task_timeout=t).render()
    ),
    "table3": lambda p, t: print(
        table3_power.run(circuits=QUICK_CIRCUITS, n_vectors=40,
                         processes=p, task_timeout=t).render()
    ),
    "table4": _run_table4_quick,
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
        from .perf import bench_main

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
                        QUICK[key](args.processes, args.task_timeout)
                    print()
                continue
            print(f"== {name} ==")
            with rec.span("experiment", cat="experiment",
                          experiment=name):
                EXPERIMENTS[name](args.processes, args.task_timeout)
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
