"""F3 — bisection bandwidth: analytic vs measured, and the s trade-off.

Per-server bisection bandwidth is ABCCC's clearest dial: ``1/(2c)`` with
``c = ceil((k+1)/(s-1))`` — BCCC pays ``1/(2(k+1))``, BCube enjoys
``1/2``, ABCCC sweeps between.  The measured column is the best cut the
estimator finds (spectral + digit + random partitions, each evaluated by
exact max-flow); on the cube family it equals the digit-cut closed form.
Both are upper bounds on the bisection width, not the width itself.
"""

from __future__ import annotations

from typing import List

from repro.baselines import BcubeSpec, DcellSpec, FatTreeSpec, FiconnSpec
from repro.core import AbcccSpec
from repro.core import properties
from repro.experiments.harness import register
from repro.metrics.bisection import (
    bisection_upper_bound,
    digit_split_abccc,
    digit_split_bcube,
    pod_split_fattree,
)
from repro.sim.results import ResultTable


def _tradeoff_table(quick: bool) -> ResultTable:
    table = ResultTable(
        "F3a: per-server bisection vs s (n=4, analytic)",
        ["k"] + [f"s{s}" for s in (2, 3, 4, 5, 6)] + ["bcube"],
    )
    ks = (1, 2) if quick else (1, 2, 3, 4, 5)
    for k in ks:
        row = {"k": k}
        for s in (2, 3, 4, 5, 6):
            row[f"s{s}"] = properties.bisection_per_server(AbcccSpec(4, k, s).abccc)
        row["bcube"] = 0.5
        table.add_row(**row)
    table.add_note("per-server bisection = 1/(2c); reaches BCube's 0.5 at c=1.")
    return table


def _measured_table(quick: bool) -> ResultTable:
    table = ResultTable(
        "F3b: bisection width, closed form vs best measured cut",
        ["topology", "servers", "analytic", "measured_ub", "match"],
    )
    cases = []
    if quick:
        cases.append((AbcccSpec(2, 1, 2), "abccc"))
        cases.append((BcubeSpec(2, 1), "bcube"))
    else:
        cases.extend(
            [
                (AbcccSpec(2, 2, 2), "abccc"),
                (AbcccSpec(4, 1, 2), "abccc"),
                (AbcccSpec(4, 1, 3), "abccc"),
                (BcubeSpec(4, 1), "bcube"),
                (BcubeSpec(2, 2), "bcube"),
                (FatTreeSpec(4), "fattree"),
                (DcellSpec(4, 1), None),
                (FiconnSpec(4, 1), None),
            ]
        )
    for spec, family in cases:
        net = spec.build()
        candidates = []
        if family == "abccc":
            candidates = [
                digit_split_abccc(net, level) for level in range(spec.k + 1)
            ]
        elif family == "bcube":
            candidates = [digit_split_bcube(net, level) for level in range(spec.k + 1)]
        elif family == "fattree":
            candidates = [pod_split_fattree(net)]
        measured = bisection_upper_bound(
            net, candidate_partitions=candidates, random_tries=2 if quick else 4
        )
        analytic = spec.bisection_links
        table.add_row(
            topology=spec.label,
            servers=spec.num_servers,
            analytic=analytic,
            measured_ub=measured,
            match=None if analytic is None else measured == analytic,
        )
    table.add_note(
        "measured_ub is the best cut found and analytic the digit-cut closed "
        "form; both are upper bounds on the bisection width, so match=True "
        "says the search found no cut below the formula, not that the formula "
        "is the width. DCell/FiConn rows have no formula, so no match."
    )
    return table


@register(
    "F3",
    "Bisection bandwidth trade-off and validation",
    "per-server bisection rises from 1/(2(k+1)) to 1/2 as s grows; "
    "measured best cuts equal the closed forms on ABCCC/BCube/fat-tree.",
)
def run(quick: bool = False) -> List[ResultTable]:
    return [_tradeoff_table(quick), _measured_table(quick)]
