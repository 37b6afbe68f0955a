"""Which heavy libraries a process loads: scipy and networkx only where they run.

scipy's sparse-graph stack and networkx together cost a process about
0.4 s and 40 MB to import, and a CLI command, a ``repro traffic`` trial,
a sweep or a serve worker never calls them.  Only the metrics that hand
a graph to networkx (bisection, pair connectivity, path counts,
``Network.to_networkx``) import them, inside the function.  Each case
runs in a fresh interpreter, so an import anywhere on its path shows up
in ``sys.modules``; the spectral-split control proves the probe sees an
import when one happens.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy", "networkx")

PROBE = """
import sys

{body}

print(" ".join(name for name in {heavy!r} if name in sys.modules))
"""

CASES = {
    "cli": "import repro, repro.cli",
    "traffic": """
        from repro.core import AbcccSpec
        from repro.topology.fastbuild import fast_compiled
        from repro.traffic.run import run_traffic

        graph = fast_compiled(AbcccSpec(3, 2, 2))
        run_traffic(graph, "abccc", "permutation", seed=1, fct=True, workers=1)
        run_traffic(
            graph,
            "abccc",
            "permutation",
            seed=1,
            fault_fractions={"switch_fraction": 0.1, "link_fraction": 0.05},
            fault_seed=3,
            workers=1,
        )
    """,
    "sweep": """
        from repro.core import AbcccSpec
        from repro.metrics.engine import sweep_graph_distance_stats
        from repro.topology.fastbuild import fast_compiled

        graph = fast_compiled(AbcccSpec(3, 2, 2))
        sweep_graph_distance_stats(graph, sample_sources=64, workers=1)
    """,
    "serve-worker": """
        import repro.serve.worker
        from repro.core import AbcccSpec
        from repro.serve.engine import execute
        from repro.serve.protocol import parse_query
        from repro.serve.scenario import ScenarioCache
        from repro.topology.fastbuild import fast_compiled

        # 1,536 nodes: the what-if labels components at a size serve answers
        graph = fast_compiled(AbcccSpec(4, 3, 2))
        cache = ScenarioCache(graph)
        scenario = {
            "dead_switches": [graph.names[0]],
            "dead_servers": [graph.names[int(graph.server_indices[5])]],
        }
        for op, params in (
            ("route", {"src": "0", "dst": "77"}),
            ("distance", {"src": "3", "dst": "400"}),
            ("whatif", scenario),
        ):
            assert execute(graph, parse_query(op, params), cache)["status"]
    """,
}


def loaded_heavy(body: str):
    """The heavy libraries a fresh interpreter holds after running ``body``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = PROBE.format(body=textwrap.dedent(body), heavy=HEAVY)
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("case", sorted(CASES))
def test_runtime_paths_load_neither_library(case):
    assert loaded_heavy(CASES[case]) == []


def test_spectral_split_loads_both():
    body = """
        from repro.core import AbcccSpec
        from repro.metrics.bisection import spectral_split

        spectral_split(AbcccSpec(3, 1, 2).build())
    """
    assert loaded_heavy(body) == list(HEAVY)
