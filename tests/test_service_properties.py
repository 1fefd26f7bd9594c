"""Property-based tests (hypothesis) on the serving layer's invariants.

Two contracts carry the whole content-addressed design and deserve
adversarial inputs rather than hand-picked cases:

* **fingerprint canonicalization** — the digest must be insensitive to
  param-dict insertion order and serialization whitespace, and
  *injective* over canonical param sets (distinct configs never share
  a key, or the cache would serve wrong results);
* **ResultCache LRU** — size bound, ``hits + misses == gets``, and
  LRU eviction order must hold under every interleaving of get/put,
  checked by a stateful rule-based machine against an OrderedDict
  model.
"""

import json
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.service.cache import ResultCache
from repro.service.fingerprint import (
    canonical_params,
    solve_fingerprint,
)
from repro.tsp.generators import uniform_instance

#: Parameter names the taxi solver accepts (fingerprinting validates
#: names against the registry; values are free-form scalars).
_TAXI_KEYS = ("sweeps", "bits", "max_cluster_size", "clustering",
              "endpoint_fixing", "workers", "chunk_size")

_scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)

_param_dicts = st.dictionaries(
    st.sampled_from(_TAXI_KEYS), _scalar_values, max_size=len(_TAXI_KEYS)
)

_INSTANCE = uniform_instance(16, seed=1)


class TestFingerprintProperties:
    @given(params=_param_dicts, order_seed=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_never_changes_the_fingerprint(
        self, params, order_seed
    ):
        items = list(params.items())
        order_seed.shuffle(items)
        reordered = dict(items)
        assert canonical_params(params) == canonical_params(reordered)
        assert solve_fingerprint(_INSTANCE, "taxi", params, 0) == (
            solve_fingerprint(_INSTANCE, "taxi", reordered, 0)
        )

    @given(params=_param_dicts)
    @settings(max_examples=60, deadline=None)
    def test_serialization_whitespace_never_changes_the_fingerprint(
        self, params
    ):
        canonical = canonical_params(params)
        keys = [key for key, _ in canonical]
        assert keys == sorted(keys)
        # A param dict rebuilt from a pretty-printed (indented,
        # spaced) serialization of itself is presentationally
        # different but semantically equal — the digest must agree.
        rebuilt = json.loads(json.dumps(params, indent=4, sort_keys=True))
        assert solve_fingerprint(_INSTANCE, "taxi", params, 0) == (
            solve_fingerprint(_INSTANCE, "taxi", rebuilt, 0)
        )

    @given(a=_param_dicts, b=_param_dicts)
    @settings(max_examples=80, deadline=None)
    def test_injective_over_param_dicts(self, a, b):
        fp_a = solve_fingerprint(_INSTANCE, "taxi", a, 0)
        fp_b = solve_fingerprint(_INSTANCE, "taxi", b, 0)
        if canonical_params(a) == canonical_params(b):
            assert fp_a == fp_b
        else:
            assert fp_a != fp_b

    @given(params=_param_dicts, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seed_always_separates_keys(self, params, seed):
        assert solve_fingerprint(_INSTANCE, "taxi", params, seed) != (
            solve_fingerprint(_INSTANCE, "taxi", params, seed + 1)
        )


class CacheMachine(RuleBasedStateMachine):
    """ResultCache vs an OrderedDict model, rule by rule.

    The model replays the documented policy (insert/refresh moves to
    the back, eviction pops the front); the invariants assert the real
    cache never drifts from it and its counters always reconcile.
    """

    CAPACITY = 4
    KEYS = [f"fp{i}" for i in range(8)]

    def __init__(self):
        super().__init__()
        self.cache = ResultCache(capacity=self.CAPACITY)
        self.model = OrderedDict()
        self.gets = 0
        self.expected_evictions = 0

    @rule(key=st.sampled_from(KEYS), value=st.integers())
    def put(self, key, value):
        self.cache.put(key, {"v": value})
        self.model[key] = {"v": value}
        self.model.move_to_end(key)
        while len(self.model) > self.CAPACITY:
            self.model.popitem(last=False)
            self.expected_evictions += 1

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        self.gets += 1
        got = self.cache.get(key)
        expected = self.model.get(key)
        if expected is None:
            assert got is None
        else:
            assert got == expected
            self.model.move_to_end(key)

    @rule(key=st.sampled_from(KEYS))
    def mutate_returned_value(self, key):
        # Deep-copy isolation: poisoning a returned dict must not
        # poison the stored entry.
        got = self.cache.get(key)
        self.gets += 1
        if got is not None:
            got["v"] = "poisoned"
            self.model.move_to_end(key)

    @invariant()
    def size_is_bounded_and_matches_model(self):
        assert len(self.cache) <= self.CAPACITY
        assert len(self.cache) == len(self.model)

    @invariant()
    def counters_reconcile(self):
        stats = self.cache.stats()
        assert stats["hits"] + stats["misses"] == self.gets
        assert stats["evictions"] == self.expected_evictions
        assert stats["size"] == len(self.model)

    @invariant()
    def eviction_order_matches_model(self):
        assert list(self.cache._entries) == list(self.model)

    @invariant()
    def entries_match_model_values(self):
        for key, expected in self.model.items():
            assert self.cache._entries[key] == expected


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
