"""The paper's claims, checked against one run of every ``repro`` study.

Each study in ``repro.__main__.EXPERIMENTS`` runs once per pytest run.
Two kinds of test read its result:

* one identity test per study: ``benchmarks/results/<study>.txt`` is
  exactly what ``python -m repro <study>`` prints, so the committed
  files (and the EXPERIMENTS.md numbers quoted from them) are the
  current code's output;
* one test per claim in :data:`CLAIMS`: the qualitative shape the paper
  reports -- who wins, the exceptions, the bands the averages land in.

A change that moves a study's output fails its identity test; once the
file is regenerated, a change that breaks the paper's shape fails the
claim that names it.  Run with::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m pytest benchmarks -q

and regenerate one study's file with::

    python -m repro <study> | sed '1d;$d' > benchmarks/results/<study>.txt
"""

import functools
import os

import pytest

from repro import units
from repro.__main__ import EXPERIMENTS
from repro.fault import STYLE_ARBITRARY

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
VDD = units.VDD_70NM


@functools.lru_cache(maxsize=None)
def study(name):
    """The result of ``python -m repro <name>``, computed once."""
    return EXPERIMENTS[name]()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_results_file_is_study_output(name):
    path = os.path.join(RESULTS, f"{name}.txt")
    with open(path, encoding="utf-8") as handle:
        committed = handle.read()
    assert study(name).render() + "\n" == committed, (
        f"`python -m repro {name}` no longer prints {path}"
    )


def _row(result, circuit):
    return next(c for c in result.comparisons if c.circuit == circuit)


def _column(rows, key):
    return [row[key] for row in rows]


#: (study, claim id, predicate over the study's result).
CLAIMS = [
    # Table I: FLH has the smallest area overhead on most circuits, the
    # high-fanout s838 inverts the ranking, and the averages land in the
    # paper's bands (33 % vs enhanced scan, 26 % vs MUX).
    ("table1", "flh-smallest-on-most-circuits", lambda r: sum(
        c.flh_pct < min(c.enhanced_pct, c.mux_pct) for c in r.comparisons
    ) >= len(r.comparisons) - 2),
    ("table1", "s838-flh-above-mux",
     lambda r: _row(r, "s838").flh_pct > _row(r, "s838").mux_pct),
    ("table1", "avg-vs-enhanced-in-33pct-band",
     lambda r: 15.0 < r.average_improvement_vs_enhanced < 55.0),
    ("table1", "avg-vs-mux-above-5pct",
     lambda r: r.average_improvement_vs_mux > 5.0),
    # Table II: MUX slowest, FLH fastest but nonzero, ~71 % average.
    ("table2", "mux-slowest",
     lambda r: all(c.mux_pct > c.enhanced_pct for c in r.comparisons)),
    ("table2", "flh-beats-enhanced",
     lambda r: all(c.flh_pct < c.enhanced_pct for c in r.comparisons)),
    ("table2", "flh-overhead-nonzero",
     lambda r: all(c.flh_pct > 0.0 for c in r.comparisons)),
    ("table2", "avg-vs-enhanced-in-71pct-band",
     lambda r: 45.0 < r.average_improvement_vs_enhanced < 90.0),
    # Table III: FLH power close to the original (s13207 below it),
    # enhanced scan and MUX pay real overheads, ~90 % average.
    ("table3", "flh-near-original-power",
     lambda r: all(abs(c.flh_pct) < 4.0 for c in r.comparisons)),
    ("table3", "enhanced-above-mux-above-original",
     lambda r: all(c.enhanced_pct > c.mux_pct > 0.0
                   for c in r.comparisons)),
    ("table3", "s13207-below-original",
     lambda r: _row(r, "s13207").flh_pct < 0.0),
    ("table3", "avg-vs-enhanced-above-75pct",
     lambda r: r.average_improvement_vs_enhanced > 75.0),
    # Table IV: fewer first-level gates and less FLH area under the
    # same delay, ~18 % average, some circuit below its FF count.
    ("table4", "first-level-gates-never-grow",
     lambda r: all(x.first_level_after <= x.first_level_before
                   for x in r.results)),
    ("table4", "area-overhead-never-grows",
     lambda r: all(x.area_overhead_after_pct
                   <= x.area_overhead_before_pct + 1e-9 for x in r.results)),
    ("table4", "avg-improvement-above-5pct",
     lambda r: r.average_improvement > 5.0),
    ("table4", "best-improvement-above-15pct",
     lambda r: r.best_improvement > 15.0),
    ("table4", "some-circuit-below-ff-count",
     lambda r: bool(r.circuits_below_ff_count)),
    # Fig. 2: the floated OUT1 decays below 600 mV well within 100 ns,
    # the next stage flips and static current appears.
    ("fig2", "decays-within-100ns",
     lambda r: r.report.decay_time is not None
     and r.report.decay_time < 100 * units.NS),
    ("fig2", "second-stage-flips", lambda r: r.report.out2_final > 0.5),
    ("fig2", "static-current-appears",
     lambda r: r.report.peak_static_current > 1e-6),
    # Fig. 4: with the keeper all three outputs stay at their rails.
    ("fig4", "state-held", lambda r: r.report.holds(margin=0.1)),
    ("fig4", "out1-held-high", lambda r: r.report.out1_min > 0.9 * VDD),
    ("fig4", "out2-held-low", lambda r: r.report.out2_max < 0.1 * VDD),
    ("fig4", "out3-held-high", lambda r: r.report.out3_min > 0.9 * VDD),
    # Fig. 5(b): the canonical sequence, logic isolated during scan.
    ("fig5", "canonical-sequence", lambda r: r.matches_canonical),
    ("fig5", "logic-isolated-during-scan", lambda r: r.isolated),
    # Section I/IV coverage: arbitrary >= skewed-load >= broadside,
    # enhanced scan and FLH capture identical responses.
    ("coverage", "arbitrary-skewed-broadside-ordering",
     lambda r: r.ordering_holds),
    ("coverage", "enhanced-and-flh-responses-identical",
     lambda r: r.responses_identical),
    ("coverage", "broadside-trails-arbitrary",
     lambda r: r.effective_by_style["broadside"]
     < r.effective_by_style["arbitrary"]),
    # Section IV shift power: isolation removes a large share of test
    # energy, FLH exactly as much as enhanced scan, more on
    # gate-rich circuits.
    ("shift", "isolation-saves-over-20pct",
     lambda r: all(s > 20.0 for s in _column(r.rows, "saving_flh_%"))),
    ("shift", "flh-as-effective-as-enhanced",
     lambda r: _column(r.rows, "saving_flh_%")
     == _column(r.rows, "saving_enh_%")),
    ("shift", "saving-grows-with-gate-count",
     lambda r: r.rows[-1]["saving_flh_%"] >= r.rows[0]["saving_flh_%"]),
    # Section III sizing: wider gating devices cut delay, cost area and
    # leave switching power alone.
    ("ablation", "delay-overhead-falls", lambda r: r.delay_monotonic_down),
    ("ablation", "area-overhead-grows", lambda r: r.area_monotonic_up),
    ("ablation", "switching-power-flat", lambda r: max(
        _column(r.rows, "power_ovh_%")
    ) - min(_column(r.rows, "power_ovh_%")) < 0.5),
    # Reference [3]: partial enhanced scan trades coverage for area;
    # FLH reaches full coverage below full-enhanced-scan area.
    ("partial", "area-grows-with-held-fraction", lambda r: _column(
        r.partial_rows, "area_ovh_%"
    ) == sorted(_column(r.partial_rows, "area_ovh_%"))),
    ("partial", "coverage-does-not-fall",
     lambda r: r.partial_rows[-1]["coverage"]
     >= r.partial_rows[0]["coverage"]),
    ("partial", "flh-dominates-full-enhanced-scan",
     lambda r: r.flh_dominates),
    # Section I: variation spreads the critical delay, and arbitrary
    # application lets fewer variation-induced defects escape.
    ("variation", "delay-spread-positive", lambda r: r.variation.std > 0.0),
    ("variation", "failure-probability-in-range",
     lambda r: 0.0 <= r.failure_probability < 1.0),
    ("variation", "arbitrary-escapes-fewer", lambda r: r.ordering_holds),
    ("variation", "arbitrary-escape-rate-below-60pct",
     lambda r: r.escapes[STYLE_ARBITRARY].escape_rate < 0.6),
]


@pytest.mark.parametrize(
    "name, claim, holds", CLAIMS,
    ids=[f"{name}.{claim}" for name, claim, _ in CLAIMS],
)
def test_claim(name, claim, holds):
    assert holds(study(name)), f"{name}: claim {claim!r} no longer holds"
