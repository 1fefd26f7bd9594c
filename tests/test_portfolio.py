"""Portfolio racing, the near-match warm-start tier, and fingerprint pins.

Covers the PR-10 determinism contract end to end:

* arm plans and per-arm seeds are pure functions of (digest, seed,
  budget) — two ``mode="best"`` races are bit-identical, tours and win
  ledgers both;
* the near-match :class:`InstanceSignature` obeys the similarity
  axioms (hypothesis: self-similarity maximal, symmetry, translation
  invariance, threshold monotonicity of ``find_similar``);
* pinned golden digests prove the portfolio plumbing never perturbed
  the content-address recipe for existing solver requests.
"""

import json
import re
import types
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import ServiceConfig
from repro.engine.portfolio import (
    WARM_CAPABLE,
    Arm,
    arm_seed,
    plan_arms,
    race,
    solve_portfolio,
)
from repro.engine.registry import build_solver
from repro.errors import ConfigError
from repro.service import ResultCache, SolveRequest, SolveService
from repro.service.cache import instance_signature
from repro.service.fingerprint import solve_fingerprint
from repro.tsp.generators import clustered_instance, uniform_instance
from repro.tsp.instance import EdgeWeightType, TSPInstance

from conftest import serve_in_thread

DIGEST = "ab" * 32


def _signature_of(coords, metric="EUC_2D"):
    return instance_signature(
        types.SimpleNamespace(coords=np.asarray(coords, dtype=float),
                              metric=metric)
    )


# ----------------------------------------------------------------------
# golden digests: portfolio metadata must never perturb fingerprints
# ----------------------------------------------------------------------
class TestGoldenFingerprints:
    """Digests computed before the portfolio landed, pinned verbatim.

    The portfolio adds solver params, config fields, and cache
    signatures *around* the fingerprint recipe; these constants fail
    the moment any of that leaks into the content address of an
    ordinary solver request.
    """

    PINNED = (
        ("sa_tsp", {"sweeps": 50}, 7, "uniform",
         "34c3749c03530ff599c348433fd270b2e17b494e7350271d085eb25ae7db1c0d"),
        ("taxi", {"sweeps": 30}, 0, "clustered",
         "2f3e50a954c593d16d29516e8b9601986f4c0b3872351fb3330a8e9d72470787"),
        ("two_opt", None, 1, "uniform",
         "0797ab7f5bae3f387a92be155062267df69364c3bd044f26cabe0414611b2895"),
    )

    def test_pinned_digests_unchanged(self):
        instances = {
            "uniform": uniform_instance(24, seed=3),
            "clustered": clustered_instance(60, seed=7),
        }
        for solver, params, seed, family, expected in self.PINNED:
            assert solve_fingerprint(
                instances[family], solver, params, seed) == expected

    def test_portfolio_fingerprints_deterministic_and_budget_sensitive(self):
        instance = uniform_instance(24, seed=3)
        first = solve_fingerprint(
            instance, "portfolio", {"budget_seconds": 1.0}, 7)
        again = solve_fingerprint(
            instance, "portfolio", {"budget_seconds": 1.0}, 7)
        assert first == again
        # The deadline-mapped budget is a *fingerprinted* param.
        assert first != solve_fingerprint(
            instance, "portfolio", {"budget_seconds": 2.0}, 7)


# ----------------------------------------------------------------------
# near-match signature properties (hypothesis)
# ----------------------------------------------------------------------
free_coords = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(4, 24), st.just(2)),
    elements=st.floats(-100.0, 100.0, allow_nan=False, width=64),
)


@st.composite
def coord_pair(draw):
    """Two coordinate clouds with the same n (else similarity is 0)."""
    n = draw(st.integers(4, 24))
    elements = st.floats(-100.0, 100.0, allow_nan=False, width=64)
    a = draw(hnp.arrays(np.float64, (n, 2), elements=elements))
    b = draw(hnp.arrays(np.float64, (n, 2), elements=elements))
    return a, b


@st.composite
def lattice_cloud_and_shift(draw):
    """Integer coords, power-of-two n, integer shift: exact arithmetic.

    ``n`` a power of two makes ``coords.mean()`` exact in binary
    floating point, so translation cancels *bit-exactly* through the
    centering step and the occupancy grids must match cell for cell —
    no boundary-rounding tolerance needed.
    """
    n = draw(st.sampled_from([8, 16, 32]))
    coords = draw(hnp.arrays(
        np.float64, (n, 2),
        elements=st.integers(-500, 500).map(float),
    ))
    shift = np.array([
        float(draw(st.integers(-10_000, 10_000))),
        float(draw(st.integers(-10_000, 10_000))),
    ])
    return coords, shift


class TestSignatureProperties:
    @settings(max_examples=60, deadline=None)
    @given(free_coords)
    def test_self_similarity_is_maximal(self, coords):
        sig = _signature_of(coords)
        assert sig.similarity(sig) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(coord_pair())
    def test_symmetry_and_bounds(self, pair):
        a, b = (_signature_of(c) for c in pair)
        forward, backward = a.similarity(b), b.similarity(a)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0
        # No other signature can beat self-similarity.
        assert forward <= a.similarity(a)

    @settings(max_examples=60, deadline=None)
    @given(lattice_cloud_and_shift())
    def test_translation_invariance_exact(self, cloud):
        coords, shift = cloud
        assert _signature_of(coords).grid == _signature_of(coords + shift).grid

    def test_different_n_or_metric_never_match(self):
        base = clustered_instance(20, seed=1).coords
        assert _signature_of(base).similarity(
            _signature_of(base[:-1])) == 0.0
        assert _signature_of(base).similarity(
            _signature_of(base, metric="CEIL_2D")) == 0.0

    def test_matrix_instances_have_no_signature(self):
        assert instance_signature(types.SimpleNamespace(coords=None)) is None

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(0.05, 0.5),
        hi=st.floats(0.5, 1.0),
        seeds=st.lists(st.integers(0, 50), min_size=1, max_size=6,
                       unique=True),
        query_seed=st.integers(0, 50),
    )
    def test_find_similar_threshold_monotone(self, lo, hi, seeds, query_seed):
        """Raising the threshold can only lose matches, never change them.

        ``find_similar`` returns the global best candidate at or above
        the threshold, so a hit at the high threshold must be the same
        hit at any lower one, and a miss at the low threshold implies a
        miss at the high one.
        """
        cache = ResultCache(capacity=32)
        for seed in seeds:
            instance = clustered_instance(30, seed=seed)
            cache.put(f"fp-{seed}", {"tour": list(range(30))},
                      signature=instance_signature(instance))
        query = instance_signature(clustered_instance(30, seed=query_seed))
        at_lo = cache.find_similar(query, threshold=lo)
        at_hi = cache.find_similar(query, threshold=hi)
        if at_hi is not None:
            assert at_lo is not None and at_lo[0] == at_hi[0]
        if at_lo is None:
            assert at_hi is None
        # A near-match probe is a hint, not a lookup: no hit recorded.
        assert cache.stats()["hits"] == 0


# ----------------------------------------------------------------------
# arm planning
# ----------------------------------------------------------------------
class TestArmPlanning:
    def test_plan_is_a_pure_function(self):
        kwargs = dict(budget_seconds=2.0, seed=7, digest=DIGEST)
        assert plan_arms(120, **kwargs) == plan_arms(120, **kwargs)

    def test_budget_widens_the_arm_set(self):
        counts = [
            len(plan_arms(120, budget_seconds=budget, seed=0, digest=DIGEST))
            for budget in (1e-4, 0.05, 2.0, 30.0)
        ]
        assert counts == sorted(counts)
        assert counts[0] >= 1  # tight deadlines degrade, never fail
        assert counts[-1] == 4  # max_arms cap

    def test_seeds_derive_from_digest_and_master_seed(self):
        arms = plan_arms(120, budget_seconds=2.0, seed=7, digest=DIGEST)
        assert len({arm.seed for arm in arms}) == len(arms)
        for arm in arms:
            assert arm.seed == arm_seed(DIGEST, 7, arm.index)
        other = plan_arms(120, budget_seconds=2.0, seed=7, digest="cd" * 32)
        assert [a.seed for a in arms] != [a.seed for a in other]

    def test_large_n_plans_sparse_arms_only(self):
        arms = plan_arms(20_000, budget_seconds=60.0, seed=0, digest=DIGEST)
        assert arms  # something raced even above the dense limit
        assert all(arm.solver not in ("sa_tsp", "greedy") for arm in arms)

    def test_bad_budget_and_max_arms_rejected(self):
        with pytest.raises(ConfigError):
            plan_arms(50, budget_seconds=0.0, seed=0, digest=DIGEST)
        with pytest.raises(ConfigError):
            plan_arms(50, budget_seconds=1.0, seed=0, digest=DIGEST,
                      max_arms=0)


# ----------------------------------------------------------------------
# racing
# ----------------------------------------------------------------------
class TestRace:
    def test_best_mode_bit_reproducible(self):
        instance = clustered_instance(80, seed=3)
        first = solve_portfolio(instance, seed=5, budget_seconds=1.0)
        second = solve_portfolio(instance, seed=5, budget_seconds=1.0)
        assert np.array_equal(first.order, second.order)
        assert first.length == second.length
        assert first.winner.label == second.winner.label
        assert first.ledger() == second.ledger()

    def test_winner_is_minimum_over_completed_arms(self):
        result = solve_portfolio(
            clustered_instance(80, seed=3), seed=5, budget_seconds=1.0)
        lengths = [o.length for o in result.outcomes
                   if o.status == "completed"]
        assert len(lengths) >= 2  # an actual race, not a single arm
        assert result.length == min(lengths)

    def test_registry_solver_matches_direct_call(self):
        instance = clustered_instance(80, seed=3)
        tour = build_solver("portfolio", seed=5, budget_seconds=1.0)(instance)
        direct = solve_portfolio(instance, seed=5, budget_seconds=1.0)
        assert np.array_equal(tour.order, direct.order)
        assert tour.length == direct.length

    def test_first_mode_cancels_unlaunched_losers(self):
        instance = clustered_instance(80, seed=3)
        arms = plan_arms(80, budget_seconds=5.0, seed=5, digest=DIGEST)
        assert len(arms) == 4
        result = race(arms, instance=instance, mode="first",
                      accept_ratio=2.0, wave_width=1)
        statuses = [o.status for o in result.outcomes]
        # Arm 0 is its own baseline, so wave 1 is already acceptable
        # at ratio 2.0 and the rest never launches.
        assert statuses == ["completed", "cancelled", "cancelled",
                            "cancelled"]
        assert result.winner.index == 0

    def test_failed_arm_does_not_kill_the_race(self):
        instance = clustered_instance(40, seed=1)
        bad = Arm(index=0, solver="no_such_solver", params=(), seed=1)
        good = Arm(index=1, solver="two_opt",
                   params=(("k", 6), ("max_rounds", 5)), seed=2)
        result = race([bad, good], instance=instance)
        assert [o.status for o in result.outcomes] == ["failed", "completed"]
        assert result.winner.index == 1

    def test_every_arm_failing_raises(self):
        instance = clustered_instance(40, seed=1)
        bad = Arm(index=0, solver="no_such_solver", params=(), seed=1)
        with pytest.raises(ConfigError, match="every portfolio arm failed"):
            race([bad], instance=instance)

    def test_ledger_has_no_wall_clock_fields(self):
        result = solve_portfolio(
            clustered_instance(40, seed=1), seed=0, budget_seconds=0.5)
        ledger = result.ledger()
        assert "seconds" not in ledger
        assert all("seconds" not in row for row in ledger["arms"])
        # Wall clock lives in timings(), explicitly outside the ledger.
        assert all(t["seconds"] >= 0.0 for t in result.timings())


# ----------------------------------------------------------------------
# warm starts
# ----------------------------------------------------------------------
class TestWarmStart:
    def test_warm_start_marks_provenance(self):
        instance = clustered_instance(60, seed=2)
        cold = solve_portfolio(instance, seed=3, budget_seconds=1.0)
        source = "f" * 64
        warm = solve_portfolio(instance, seed=3, budget_seconds=1.0,
                               warm_start=cold.order, warm_source=source)
        assert warm.warm_source == source
        assert warm.ledger()["warm_start"] == source
        assert any(o.warm for o in warm.outcomes
                   if o.arm.solver in WARM_CAPABLE)
        # Warm seeding only ever helps: the deterministic cold arms
        # still race, so the winner cannot be worse than cold.
        assert warm.length <= cold.length

    def test_invalid_warm_tour_falls_back_cold(self):
        instance = clustered_instance(60, seed=2)
        not_a_permutation = np.zeros(60, dtype=int)
        result = solve_portfolio(
            instance, seed=3, budget_seconds=1.0,
            warm_start=not_a_permutation, warm_source="a" * 64)
        assert result.warm_source is None
        assert not any(o.warm for o in result.outcomes)

    def test_warm_start_ignored_by_non_annealing_arms(self):
        instance = clustered_instance(60, seed=2)
        warm = solve_portfolio(instance, seed=3, budget_seconds=1.0,
                               warm_start=np.arange(60), warm_source="b" * 64)
        for outcome in warm.outcomes:
            if outcome.arm.solver not in WARM_CAPABLE:
                assert not outcome.warm


# ----------------------------------------------------------------------
# through the service
# ----------------------------------------------------------------------
class TestServicePortfolio:
    def _solve(self, service, **overrides):
        request = SolveRequest.create(
            overrides.pop("token", "clustered:48:4"),
            solver="portfolio",
            params={"budget_seconds": 0.5, **overrides.pop("params", {})},
            seed=overrides.pop("seed", 2),
        )
        job = service.solve(request, timeout=300.0)
        view = job.as_dict()
        assert view["status"] == "done", view["error"]
        return request, view

    def test_portfolio_solve_reports_ledger_and_metrics(self):
        with SolveService(ServiceConfig()) as service:
            _, view = self._solve(service)
            ledger = view["result"]["portfolio"]
            assert ledger["winner"]
            assert ledger["winner_length"] == view["result"]["length"]
            snapshot = service.metrics.snapshot()
            assert snapshot["repro_portfolio_arms_total"] >= 1
            wins = snapshot["repro_portfolio_wins_total"]
            assert sum(wins.values()) == 1
            assert ledger["winner"] in wins

    def test_two_services_produce_identical_ledgers(self):
        views = []
        for _ in range(2):
            with SolveService(ServiceConfig()) as service:
                views.append(self._solve(service)[1])
        first, second = views
        assert first["fingerprint"] == second["fingerprint"]
        assert first["result"]["tour_hash"] == second["result"]["tour_hash"]
        assert first["result"]["portfolio"] == second["result"]["portfolio"]

    def test_near_match_warm_start_carries_source_fingerprint(self):
        base = clustered_instance(40, seed=6)
        nudged = base.coords + 1e-6
        with SolveService(ServiceConfig()) as service:
            cold_request, cold = self._solve(
                service,
                token=TSPInstance("warm-a", base.coords,
                                  EdgeWeightType.EUC_2D),
            )
            assert "warm_start" not in cold["result"]
            _, warm = self._solve(
                service,
                token=TSPInstance("warm-b", nudged, EdgeWeightType.EUC_2D),
            )
            assert warm["result"]["warm_start"] == \
                cold_request.fingerprint()[:16]
            snapshot = service.metrics.snapshot()
            assert snapshot["repro_warm_starts_total"] == 1

    def test_warm_started_results_are_never_cached(self):
        # A warm-started race depends on what the cache held when it
        # ran, so its fingerprint does not determine its result.
        base = clustered_instance(40, seed=6)
        nudged = base.coords + 1e-6
        with SolveService(ServiceConfig()) as service:
            self._solve(service, token=TSPInstance(
                "warm-a", base.coords, EdgeWeightType.EUC_2D))
            warm_token = TSPInstance("warm-b", nudged, EdgeWeightType.EUC_2D)
            request, warm = self._solve(service, token=warm_token)
            assert "warm_start" in warm["result"]
            assert request.fingerprint() not in service.cache
            _, again = self._solve(service, token=warm_token)
            assert not again["cached"]

    def test_warm_start_off_disables_the_tier(self):
        base = clustered_instance(40, seed=6)
        nudged = base.coords + 1e-6
        config = ServiceConfig(warm_start="off")
        with SolveService(config) as service:
            self._solve(service, token=TSPInstance(
                "warm-a", base.coords, EdgeWeightType.EUC_2D))
            _, warm = self._solve(service, token=TSPInstance(
                "warm-b", nudged, EdgeWeightType.EUC_2D))
            assert "warm_start" not in warm["result"]
            assert service.metrics.snapshot()[
                "repro_warm_starts_total"] == 0

    def test_first_mode_results_are_never_cached(self):
        # A first-mode race stops on the pool width and on wall-clock
        # overrun, so its fingerprint does not determine its result.
        with SolveService(ServiceConfig(workers=1)) as service:
            self._solve(service, params={"mode": "first"})
            size = len(service.cache)
            request, again = self._solve(service, params={"mode": "first"})
            assert not again["cached"]
            assert len(service.cache) == size
            assert request.fingerprint() not in service.cache
            # Best mode is reproducible, so an identical pair still hits.
            self._solve(service, params={"mode": "best"})
            _, hit = self._solve(service, params={"mode": "best"})
            assert hit["cached"]
            assert len(service.cache) == size + 1

    def test_trajectory_param_rejected_at_admission(self):
        # The arm plan reads no state outside the fingerprinted params,
        # so a param the service would ignore must not split cache keys.
        params = {"budget_seconds": 0.5, "trajectory": "/tmp"}
        request = SolveRequest.create(
            "clustered:48:4", solver="portfolio", params=params, seed=2)
        accepted = re.escape(
            "accepted: ['accept_ratio', 'budget_seconds', 'max_arms', "
            "'mode', 'seed']")
        with pytest.raises(ConfigError, match=accepted):
            request.fingerprint()

        from repro.service.http import make_server

        service = SolveService(ServiceConfig())
        server = make_server(service, port=0)
        service.start()
        serve_in_thread(server)
        try:
            body = {"instance": "clustered:48:4", "portfolio": True,
                    "seed": 2, "params": params}
            post = urllib.request.Request(
                f"http://127.0.0.1:{server.server_address[1]}/solve",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(post)
            assert err.value.code == 400
            assert "'trajectory'" in json.load(err.value)["error"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()
