"""Shared fixtures plus a per-test hang guard for the tier-1 suite.

No tier-1 test should run anywhere near :data:`SOFT_TIMEOUT_S`; the
guard exists so a regression that deadlocks (a stuck worker pool, an
unbounded resume loop) fails the test instead of hanging CI.  When
``pytest-timeout`` is installed (dev extra) it does the job with its
own option handling; otherwise a plain ``SIGALRM`` fallback covers
POSIX main-thread runs and stays out of the way everywhere else.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.baselines import BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.topology.graph import Network

SOFT_TIMEOUT_S = 300


def pytest_configure(config) -> None:
    if config.pluginmanager.hasplugin("timeout"):
        # pytest-timeout is present: give it a default without
        # overriding an explicit --timeout from the command line.
        if not getattr(config.option, "timeout", None):
            config.option.timeout = SOFT_TIMEOUT_S


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    usable = (
        not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {SOFT_TIMEOUT_S}s soft timeout (hang guard)"
        )

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, SOFT_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous_handler)


@pytest.fixture(scope="session")
def abccc_small() -> tuple:
    """ABCCC(3, 1, 2): 2 levels, crossbars of 2 — the smallest instance
    with non-trivial intra-crossbar structure."""
    spec = AbcccSpec(3, 1, 2)
    return spec, spec.build()


@pytest.fixture(scope="session")
def abccc_medium() -> tuple:
    """ABCCC(3, 2, 2): crossbars of 3, the workhorse instance."""
    spec = AbcccSpec(3, 2, 2)
    return spec, spec.build()


@pytest.fixture(scope="session")
def abccc_s3() -> tuple:
    """ABCCC(3, 2, 3): multi-level owners (s - 1 = 2 levels per server)."""
    spec = AbcccSpec(3, 2, 3)
    return spec, spec.build()


@pytest.fixture(scope="session")
def abccc_large() -> tuple:
    """ABCCC(4, 3, 2): 1,536 nodes, a graph the size serve and sweeps label."""
    spec = AbcccSpec(4, 3, 2)
    return spec, spec.build()


@pytest.fixture(scope="session")
def bcube_small() -> tuple:
    spec = BcubeSpec(3, 1)
    return spec, spec.build()


@pytest.fixture(scope="session")
def fattree_small() -> tuple:
    spec = FatTreeSpec(4)
    return spec, spec.build()


@pytest.fixture()
def tiny_net() -> Network:
    """A hand-built 2-server / 1-switch network for unit tests."""
    net = Network("tiny")
    net.add_server("a", ports=2)
    net.add_server("b", ports=2)
    net.add_switch("sw", ports=4)
    net.add_link("a", "sw")
    net.add_link("b", "sw")
    return net
