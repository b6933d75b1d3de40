"""Tests for reproducible named random streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import TOOLING, model_modules
from repro.simkernel.rng import RngRegistry, derive_seed


def test_same_key_same_stream():
    a = RngRegistry(42).stream("load", "host", 3)
    b = RngRegistry(42).stream("load", "host", 3)
    assert np.array_equal(a.random(10), b.random(10))


def test_different_keys_differ():
    reg = RngRegistry(42)
    a = reg.stream("load", "host", 3).random(10)
    b = reg.stream("load", "host", 4).random(10)
    assert not np.array_equal(a, b)


def test_different_roots_differ():
    a = RngRegistry(1).stream("x").random(10)
    b = RngRegistry(2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_creation_order_irrelevant():
    reg1 = RngRegistry(9)
    first = reg1.stream("a").random(5)
    reg1.stream("b")
    reg2 = RngRegistry(9)
    reg2.stream("b")
    second = reg2.stream("a").random(5)
    assert np.array_equal(first, second)


def test_spawn_matches_direct_derivation():
    root = RngRegistry(77)
    spawned = root.spawn("sub")
    assert spawned.seed_for("x") == derive_seed(root.seed_for("sub"), "x")


def test_key_separator_prevents_concatenation_collisions():
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")
    assert derive_seed(0, "ab") != derive_seed(0, "a", "b")


def test_int_and_str_keys_are_equivalent_when_equal_text():
    # ints are stringified: stable across Python runs, and 3 == "3".
    assert derive_seed(5, 3) == derive_seed(5, "3")


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.lists(st.integers(min_value=0, max_value=1000), max_size=4))
@settings(max_examples=50)
def test_derive_seed_in_64bit_range(root, key):
    seed = derive_seed(root, *key)
    assert 0 <= seed < 2**64


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_derive_seed_deterministic(root):
    assert derive_seed(root, "k") == derive_seed(root, "k")


# -- batch seeding: streams(keys) == [stream(*key) for key in keys] ----------

from repro.simkernel._seedseq import prepared_streams, seed_states  # noqa: E402

#: Seeds at the edges of the one-word/two-word entropy split.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


def _assert_same_stream(got, want):
    """Same state, same first draws of each sampler, same spawned
    children -- spawning twice, so the spawn counters must agree too."""
    assert got.bit_generator.state == want.bit_generator.state
    for draw in (lambda g: g.random(4), lambda g: g.exponential(3.0, 4),
                 lambda g: g.geometric(0.25, 4),
                 lambda g: g.uniform(2.0, 5.0, 4)):
        assert np.array_equal(draw(got), draw(want))
    for n in (2, 3):
        kids, ref = got.spawn(n), want.spawn(n)
        assert len(kids) == len(ref) == n
        for kid, ref_kid in zip(kids, ref):
            assert kid.bit_generator.state == ref_kid.bit_generator.state
            assert np.array_equal(kid.random(3), ref_kid.random(3))
    assert got.bit_generator.state == want.bit_generator.state


def _reference(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_seed_states_match_seed_sequence_at_word_edges():
    states = seed_states(EDGE_SEEDS)
    for seed, row in zip(EDGE_SEEDS, states):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.dtype == np.uint64
        assert np.array_equal(row, want)


def test_prepared_streams_equal_pcg64_at_word_edges():
    for got, seed in zip(prepared_streams(EDGE_SEEDS), EDGE_SEEDS):
        _assert_same_stream(got, _reference(seed))


@given(st.lists(st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**64 - 1)),
                min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_prepared_streams_equal_pcg64(seeds):
    # One- and two-word seeds mixed in one batch.
    for got, seed in zip(prepared_streams(seeds), seeds):
        _assert_same_stream(got, _reference(seed))


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.tuples(st.sampled_from(["load", "revocation", "x"]),
                          st.integers(0, 64)),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_streams_equal_one_stream_per_key(root, keys):
    reg = RngRegistry(root)
    for got, key in zip(reg.streams(keys), keys):
        _assert_same_stream(got, reg.stream(*key))


def test_streams_accepts_any_iterable_and_empty():
    reg = RngRegistry(5)
    assert reg.streams([]) == []
    (a, b) = reg.streams(("host", i) for i in range(2))
    _assert_same_stream(b, reg.stream("host", 1))


def test_prepared_seed_sequence_serves_other_requests_exactly():
    (gen,) = prepared_streams([123456789])
    seq = gen.bit_generator.seed_seq
    ref = np.random.SeedSequence(123456789)
    assert np.array_equal(seq.generate_state(8), ref.generate_state(8))
    assert np.array_equal(seq.generate_state(4, np.uint64),
                          ref.generate_state(4, np.uint64))


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], check=True, env=env,
                          capture_output=True, text=True, timeout=60).stdout


def test_importing_rng_and_executor_leaves_numpy_random_unloaded():
    # The fabric coordinator and the executor import the registry but
    # draw nothing; numpy.random costs set-up time and resident memory.
    code = ("import sys\n"
            "import repro.experiments.executor, repro.simkernel.rng\n"
            "print('numpy.random' in sys.modules)\n")
    assert _run_fresh(code).strip() == "False"


#: What a cell never needs: the package's tooling, and the stdlib chain
#: behind the report writer.  A fresh interpreter that only computes
#: cells must not import (nor, without bytecode caches, compile) any of
#: it.
_TOOLING = TOOLING + ("xml.sax", "urllib.request", "http.client")


def _loaded_after(body: str) -> "tuple[list[str], list[str]]":
    """The ``repro`` modules, and the ``_TOOLING``, that a fresh
    interpreter holds after running ``body``."""
    code = (f"import sys\n{body}\n"
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'repro'))\n"
            f"print(*[m for m in {_TOOLING!r} if m in sys.modules])\n")
    *_, model, tooling = _run_fresh(code).split("\n")[:-1]
    return model.split(), tooling.split()


#: Loads the whole model: a traced cell of every scenario, an untraced
#: cell, then a mechanism-level swap runtime job.
_MODEL_PROBE = """\
from repro.experiments.executor import compute_cell
from repro.experiments.scenarios import ALL_SCENARIOS, get_scenario
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.swap.runtime import SwapRuntime
from repro.units import MFLOPS
for name in sorted(ALL_SCENARIOS):
    spec = get_scenario(name)
    compute_cell(spec, spec.x_values[0], 0, instrument=True)
fig7 = get_scenario('fig7')
compute_cell(fig7, fig7.x_values[0], 0)
platform = make_platform(4, OnOffLoadModel(p=0.3, q=0.08), seed=0,
                         horizon=100.0)
SwapRuntime(platform, n_active=2, chunk_flops=100 * MFLOPS,
            use_nws_bank=True).run_iterative(2)"""


def test_computing_cells_loads_no_tooling():
    # ... and exactly the model that code_digest hashes: a module the
    # model loads but the digest misses would let cached cells go stale.
    model, tooling = _loaded_after(_MODEL_PROBE)
    assert tuple(model) == model_modules()
    assert tooling == []


def test_serial_cli_sweep_loads_no_tooling():
    # Nothing but the CLI itself and its table formatter.
    _model, tooling = _loaded_after(
        "from repro.experiments import cli\n"
        "cli.main(['fig7', '--seeds', '1', '--no-cache', '--no-bench'])")
    assert tooling == ["repro.experiments.cli", "repro.experiments.report"]


def test_importing_the_fabric_leaves_the_runtime_plane_unloaded():
    # The coordinator loads the runtime plane only when a run asks for
    # telemetry or a progress ticker; a worker never writes telemetry.
    code = ("import sys\n"
            "import repro.experiments.fabric\n"
            "print('repro.obs.runtime' in sys.modules)\n")
    assert _run_fresh(code).strip() == "False"
