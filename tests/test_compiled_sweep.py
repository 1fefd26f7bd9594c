"""The compiled macro sweep: bit-identity with the NumPy loop, and its loader.

``repro.kernels.compiled`` builds ``_sweep.c`` at first use, and
``anneal_group_fast`` then runs every sweep of a batch in one call to
it.  The contract is bit-identity with the NumPy loop, which stays as
the oracle: equal orders, positions, guard proxies and sweep counts,
and every generator left at the same point of its stream.  Without a
compiler, or when the build fails, the NumPy loop runs and the tours
are the same.
"""

import os
import shutil
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import TAXIConfig, TAXISolver
from repro.kernels import compiled
from repro.kernels.macro import anneal_group_fast, batch_proxy, sweep_path
from repro.tsp.benchmarks import load_benchmark
from repro.utils.hashing import tour_hash

BIT_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
    np.random.Philox, np.random.SFC64,
)

#: Open-path fixed endpoints: (first pinned, last pinned).
FIXED_ENDS = [(True, True), (True, False), (False, True), (False, False)]

#: Weight values the selection must treat as NumPy does: an infinite
#: score, a NaN that wins its argmax, and a zero whose sign is dropped.
SPECIALS = (np.inf, -np.inf, np.nan, -0.0)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")


def require_library() -> None:
    """Skip unless the compiled sweep loads: the differential tests need it."""
    library, reason = compiled.load()
    if library is None:
        pytest.skip(f"compiled sweep unavailable: {reason}")


@contextmanager
def numpy_loop():
    """Run the NumPy loop for the duration (hypothesis-safe: no fixture)."""
    saved = compiled._loaded
    compiled._loaded = (None, "disabled by test")
    try:
        yield
    finally:
        compiled._loaded = saved


@st.composite
def batches(draw):
    """A ragged batch spec: chunk shapes, generators and kernel config."""
    chunk = st.tuples(
        st.one_of(st.integers(3, 14), st.sampled_from([9, 17, 33, 129, 150])),
        st.integers(1, 3),                        # macro rows
        st.sampled_from(FIXED_ENDS),
        st.integers(0, len(BIT_GENERATORS) - 1),
    )
    chunks = draw(st.lists(chunk, min_size=1, max_size=4))
    if sum(n * rows for n, rows, _, _ in chunks) > 400:
        chunks = chunks[:1]  # one wide chunk at most: keep the oracle quick
    return dict(
        chunks=chunks,
        closed=draw(st.booleans()),
        integer=draw(st.booleans()),              # integer weights tie often
        guarded=draw(st.booleans()),
        resolution=draw(st.sampled_from([0.0, 1e-3, 0.05])),
        share=draw(st.booleans()),                # chunk 1 reuses chunk 0's generator
        sweeps=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _inputs(spec):
    """Fresh kernel inputs for ``spec``: chunks, positions, probabilities, rngs."""
    rng = np.random.default_rng(spec["seed"])
    closed = spec["closed"]
    chunks, positions, rngs = [], [], []
    for index, (n, rows, (first, last), kind) in enumerate(spec["chunks"]):
        if spec["integer"]:
            weights = rng.integers(0, 4, (rows, n, n)).astype(float)
        else:
            weights = rng.random((rows, n, n))
        if "specials" in spec:  # (values, fraction of entries)
            values, fraction = spec["specials"]
            hit = rng.random(weights.shape) < fraction
            weights[hit] = rng.choice(np.array(values), int(hit.sum()))
        order = np.array([rng.permutation(n) for _ in range(rows)])
        allowed = np.ones((rows, n), dtype=bool)
        start, stop = 0, n
        if not closed:
            start, stop = int(first), n - int(last)
            if first:
                allowed[np.arange(rows), order[:, 0]] = False
            if last:
                allowed[np.arange(rows), order[:, -1]] = False
        chunks.append((
            weights, order, np.argsort(order, axis=1), allowed,
            batch_proxy(weights, order, closed),
        ))
        positions.append(np.arange(start, stop))
        if spec["share"] and index == 1:
            rngs.append(rngs[0])
        else:
            bit_generator = BIT_GENERATORS[kind](spec["seed"] + index)
            rngs.append(np.random.Generator(bit_generator))
    return chunks, positions, rng.random(spec["sweeps"]), rngs


@np.errstate(invalid="ignore")  # inf + -inf is NaN on both paths
def _anneal(spec, *, numpy):
    chunks, positions, probabilities, rngs = _inputs(spec)
    with numpy_loop() if numpy else nullcontext():
        done = anneal_group_fast(
            chunks, positions, probabilities,
            closed=spec["closed"], read_noise=0.0,
            resolution=spec["resolution"], guarded=spec["guarded"], rngs=rngs,
        )
    state = [array.tobytes() for chunk in chunks for array in chunk[1:4]]
    proxies = [chunk[4].copy() for chunk in chunks]
    # Each distinct generator's next draws: both paths consumed as much.
    following = [g.random(3).tobytes() for g in dict.fromkeys(rngs)]
    return done, state, proxies, following


def assert_compiled_equals_numpy(spec, *, proxy_bits=True) -> None:
    """Both paths leave equal orders, positions, proxies and streams.

    ``proxy_bits=False`` compares the guard proxies NaN-aware: a NaN
    from ``inf + -inf`` may carry other sign or payload bits in C.
    """
    done, state, proxies, following = _anneal(spec, numpy=False)
    oracle = _anneal(spec, numpy=True)
    assert (done, state, following) == (oracle[0], oracle[1], oracle[3])
    for proxy, expected in zip(proxies, oracle[2]):
        if proxy_bits:
            assert proxy.tobytes() == expected.tobytes()
        else:
            np.testing.assert_array_equal(proxy, expected)


class TestCompiledEqualsNumpy:
    @settings(max_examples=250, deadline=None)
    @given(spec=batches())
    def test_random_ragged_batches(self, spec):
        require_library()
        assert_compiled_equals_numpy(spec)

    @settings(max_examples=200, deadline=None)
    @given(spec=batches(), special=st.sampled_from(SPECIALS),
           fraction=st.sampled_from([0.05, 0.3]))
    @example(  # integer weights: ties, so the first maximum must win
        spec=dict(chunks=[(9, 2, (False, False), 0), (12, 1, (True, True), 2)],
                  closed=False, integer=True, guarded=True, resolution=1e-3,
                  share=True, sweeps=3, seed=11),
        special=-0.0, fraction=0.3,
    )
    def test_one_special_weight_kind(self, spec, special, fraction):
        require_library()
        assert_compiled_equals_numpy({**spec, "specials": ((special,), fraction)})

    @settings(max_examples=150, deadline=None)
    @given(spec=batches(), fraction=st.sampled_from([0.05, 0.3]))
    def test_mixed_special_weights(self, spec, fraction):
        require_library()
        assert_compiled_equals_numpy(
            {**spec, "specials": (SPECIALS, fraction)}, proxy_bits=False
        )

    def test_rank_order_differs_from_input_order(self):
        # Chunks listed shortest first: drawing in input order instead of
        # rank order shifts every shared generator's stream.
        spec = dict(
            chunks=[(4, 1, (True, True), 0), (9, 2, (False, False), 2),
                    (6, 1, (True, False), 4)],
            closed=False, integer=False, guarded=True, resolution=1e-3,
            share=True, sweeps=3, seed=5,
        )
        require_library()
        assert_compiled_equals_numpy(spec)


    def test_out_of_range_positions_raise_instead_of_reading_past_rows(self):
        require_library()
        spec = dict(chunks=[(5, 2, (False, False), 0)], closed=True, integer=False,
                    guarded=True, resolution=1e-3, share=False, sweeps=1, seed=1)
        chunks, _, probabilities, rngs = _inputs(spec)
        with pytest.raises(ValueError, match="out of range"):
            anneal_group_fast(
                chunks, [np.array([0, 5])], probabilities, closed=True,
                read_noise=0.0, resolution=1e-3, guarded=True, rngs=rngs,
            )


def _tour_hash(**config):
    result = TAXISolver(TAXIConfig(sweeps=20, **config)).solve(load_benchmark(76))
    return tour_hash(result.tour.order)


def _fresh_loader(monkeypatch, cache: Path) -> None:
    """An undecided loader that builds into ``cache`` with ``cc``."""
    monkeypatch.setattr(compiled, "CACHE_DIR", cache)
    monkeypatch.setattr(compiled, "_loaded", None)
    monkeypatch.delenv("CC", raising=False)


class TestLoader:
    def test_missing_compiler_runs_numpy_with_same_tour(self, monkeypatch, tmp_path):
        expected = _tour_hash()
        _fresh_loader(monkeypatch, tmp_path / "cache")
        monkeypatch.setenv("CC", "no-such-c-compiler")
        assert sweep_path() == "numpy (no C compiler)"
        assert _tour_hash() == expected
        assert not (tmp_path / "cache").exists()

    @needs_cc
    @pytest.mark.parametrize("broken", ["source", "compiler"])
    def test_build_failure_runs_numpy(self, monkeypatch, tmp_path, broken):
        expected = _tour_hash()
        _fresh_loader(monkeypatch, tmp_path / "cache")
        if broken == "source":
            source = tmp_path / "_sweep.c"
            source.write_text("this is not C\n")
            monkeypatch.setattr(compiled, "SOURCES", (source, *compiled.SOURCES[1:]))
        else:
            monkeypatch.setenv("CC", "false")
        library, reason = compiled.load()
        assert library is None
        assert reason.startswith("build failed: ")
        assert sweep_path() == f"numpy ({reason})"
        assert _tour_hash() == expected
        assert list((tmp_path / "cache").iterdir()) == []  # no temp file left

    @needs_cc
    def test_unwritable_cache_runs_numpy(self, monkeypatch, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where the cache directory would go
        _fresh_loader(monkeypatch, blocker / "cache")
        assert sweep_path().startswith("numpy (cache not writable: ")

    @needs_cc
    def test_concurrent_builds_leave_one_library(self, tmp_path):
        cache = tmp_path / "cache"
        script = (
            "import sys; from pathlib import Path; "
            "from repro.kernels import compiled; "
            "compiled.CACHE_DIR = Path(sys.argv[1]); print(compiled.load()[1])"
        )
        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        env.pop("CC", None)  # build with cc, like _fresh_loader
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache)],
                stdout=subprocess.PIPE, env=env, text=True,
            )
            for _ in range(2)
        ]
        outputs = [worker.communicate(timeout=120)[0].split() for worker in workers]
        assert outputs == [["compiled"], ["compiled"]]
        [built] = cache.iterdir()
        assert built.name.startswith("_kernels.") and built.suffix == ".so"

    @needs_cc
    def test_kernel_runs_compiled_with_cc(self, monkeypatch, tmp_path):
        _fresh_loader(monkeypatch, tmp_path / "cache")
        calls = []
        anneal = compiled.anneal
        monkeypatch.setattr(
            compiled, "anneal", lambda *a, **k: calls.append(1) or anneal(*a, **k)
        )
        _tour_hash()
        assert calls
        assert sweep_path() == "compiled"

    def test_read_noise_and_reference_report_numpy(self):
        assert sweep_path(read_noise=0.05) == "numpy (read noise)"
