"""Each SL rule: one fixture that triggers it, one that must not."""

import textwrap

from repro.analysis.linter import lint_source


def lint(code):
    return lint_source(textwrap.dedent(code), path="src/repro/fake/mod.py")


def codes(code):
    return [f.code for f in lint(code)]


# -- SL001: random streams outside the registry ------------------------------

class TestSL001:
    def test_host_clock_reads_not_flagged(self):
        # A host-clock read that feeds a result makes reruns, --jobs and
        # the lowering oracle disagree; those gates catch it, not SL001.
        assert codes("""
            import time
            from datetime import datetime
            def stamp():
                return time.time(), datetime.now()
        """) == []

    def test_from_import_alias_resolved(self):
        assert codes("""
            from numpy.random import default_rng as make
            def stream():
                return make(7)
        """) == ["SL001"]

    def test_module_level_random_flagged(self):
        assert codes("""
            import random
            def draw():
                return random.random()
        """) == ["SL001"]

    def test_unseeded_default_rng_flagged(self):
        assert codes("""
            import numpy as np
            def make():
                return np.random.default_rng()
        """) == ["SL001"]

    def test_seeded_default_rng_flagged(self):
        # Seeding does not make a stream owned: a generator built off
        # the registry gives every cell the same draws, whatever its seed.
        assert codes("""
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
        """) == ["SL001"]

    def test_registry_modules_may_build_generators(self):
        for path in ("src/repro/simkernel/rng.py",
                     "src/repro/simkernel/_seedseq.py"):
            assert lint_source(
                "from numpy.random import PCG64, Generator\n"
                "def stream(seed):\n"
                "    return Generator(PCG64(seed))\n", path=path) == []

    def test_registry_stream_ok(self):
        assert codes("""
            from repro.simkernel.rng import RngRegistry
            def make(seed):
                return RngRegistry(seed).stream("load", 0)
        """) == []


# -- SL004: float time equality ---------------------------------------------

class TestSL004:
    def test_now_equality_flagged(self):
        assert codes("""
            def check(sim, t):
                return sim.now == t
        """) == ["SL004"]

    def test_peek_inequality_flagged(self):
        assert codes("""
            def check(sim, t):
                return sim.peek() != t
        """) == ["SL004"]

    def test_ordering_comparison_ok(self):
        assert codes("""
            def check(sim, t):
                return sim.now >= t
        """) == []


# -- SL005: raw unit literals -----------------------------------------------

class TestSL005:
    def test_raw_gigabyte_flagged(self):
        assert codes("""
            STATE = 1e9
        """) == ["SL005"]

    def test_raw_hour_flagged(self):
        assert codes("""
            def horizon():
                return 3600
        """) == ["SL005"]

    def test_units_module_exempt(self):
        assert lint_source("HOUR = 3600.0\n",
                           path="src/repro/units.py") == []

    def test_units_constant_usage_ok(self):
        assert codes("""
            from repro.units import GB
            STATE = 1 * GB
        """) == []


def test_every_rule_has_a_registered_code():
    from repro.analysis.rules import all_rules

    rules = all_rules()
    assert sorted(r.code for r in rules) == [
        "SL001", "SL004", "SL005"]
    for rule in rules:
        assert rule.summary and rule.name
