"""The benchmark reaches into the program by name: ``bench/layers.py``
wraps functions and methods through ``getattr`` and ``bench/smoke.py``
checks the ``parse`` bindings.  A rename here would break the benchmark
only when it runs; this test breaks first."""

import sys
from pathlib import Path

from beliefworld import collab_engine, reasoner, sbl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402


def test_bench_instruments_bind_and_restore():
    parse = sbl.parse
    with layers.Tracer(), layers.ReasonerTally():
        assert layers.leftover_wrappers()
    assert layers.leftover_wrappers() == []
    assert sbl.parse is parse
    assert collab_engine.parse is parse
    assert reasoner.parse is parse
