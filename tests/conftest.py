"""Session-scoped Ray + shared fixtures (one ray.init per pytest session)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def each_route(monkeypatch):
    """``each_route(fn)`` calls ``fn()`` once per route of the two
    driver-vs-exchange choices in ``kgx.stages.exchange`` —
    ``hash_partitioned_apply``/``_agg`` and ``lookup_join`` share one byte
    bound, ``DRIVER_BYTES`` — and returns the two results in order: first
    the driver route (a bound above every input: kernels run once on the
    driver, dimensions broadcast), then the exchange route (a bound below
    every input, the empty one included)."""
    from kgx.stages import exchange

    def run(fn):
        out = []
        for bound in (1 << 62, -1):
            monkeypatch.setattr(exchange, "DRIVER_BYTES", bound)
            out.append(fn())
        return out

    return run


@pytest.fixture(scope="session")
def kb():
    from kgx import synth

    return synth.build_knowledge_base()


@pytest.fixture(scope="session")
def cfg():
    from kgx import config_loader

    return config_loader.resolve_settings()


@pytest.fixture(scope="session")
def pages_small(kb):
    """200 generated pages + the FIXTURES.md edge rows (209 total)."""
    from kgx import synth

    return synth.gen_pages(200, seed=42, kb=kb)


@pytest.fixture(scope="session")
def oracle_small(pages_small, cfg, kb):
    from kgx import oracle

    return oracle.run(pages_small, cfg, kb)
