"""Shared-memory instance arena tests.

The arena contract under test:

* ``content_key`` is the canonical geometry digest — name-independent,
  deterministic, and byte-identical to the service fingerprint layer's
  ``instance_digest`` (which delegates to it);
* ``publish`` is content-addressed and idempotent: same geometry, same
  blocks, one physical copy;
* attached arrays are read-only views of the exact published bytes —
  in this process and in a separate one (the whole point);
* an arena-backed :class:`InstanceSpec` resolves to the same geometry
  (and therefore the same solves) as the original instance;
* ``close`` unlinks the blocks: the owner controls lifetime, not the
  attachers.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import ServiceConfig
from repro.engine.arena import (
    InstanceArena,
    attach_shared_instance,
    clear_attachments,
    content_key,
)
from repro.engine.jobs import InstanceSpec
from repro.errors import ConfigError
from repro.service.fingerprint import instance_digest
from repro.service.queue import SolveRequest, SolveService
from repro.tsp.generators import uniform_instance
from repro.tsp.instance import EdgeWeightType, TSPInstance


class TestContentKey:
    def test_name_independent_and_deterministic(self):
        a = uniform_instance(24, seed=3)
        b = TSPInstance("another-name", a.coords, a.metric)
        assert content_key(a) == content_key(b)
        assert content_key(a) == content_key(a)

    def test_is_the_fingerprint_instance_digest(self):
        # One digest recipe for the whole repo: arena keys and solve
        # fingerprints can never disagree about instance identity.
        inst = uniform_instance(24, seed=3)
        assert content_key(inst) == instance_digest(inst)

    def test_geometry_changes_key(self):
        assert content_key(uniform_instance(24, seed=3)) != content_key(
            uniform_instance(24, seed=4)
        )


class TestInstanceArena:
    def test_publish_attach_roundtrip_bit_identical(self):
        inst = uniform_instance(32, seed=5)
        with InstanceArena() as arena:
            ref = arena.publish(inst)
            attached, matrix = attach_shared_instance(ref)
            assert matrix is None
            assert attached.n == inst.n
            assert attached.metric is inst.metric
            assert (
                np.asarray(attached.coords).tobytes()
                == np.ascontiguousarray(inst.coords, np.float64).tobytes()
            )

    def test_attached_arrays_are_readonly(self):
        inst = uniform_instance(16, seed=21)
        with InstanceArena() as arena:
            ref = arena.publish(inst)
            attached, _ = attach_shared_instance(ref)
            with pytest.raises((ValueError, RuntimeError)):
                np.asarray(attached.coords)[0, 0] = 99.0

    def test_publish_is_idempotent_and_content_addressed(self):
        inst = uniform_instance(16, seed=22)
        clone = TSPInstance("clone", inst.coords, inst.metric)
        with InstanceArena() as arena:
            first = arena.publish(inst)
            second = arena.publish(clone)  # different name, same geometry
            assert second.key == first.key
            assert second.coords.name == first.coords.name
            stats = arena.stats()
            assert stats["instances"] == 1
            assert stats["blocks"] == 1
            # publishes counts placements, not calls: the second call
            # found the existing blocks.
            assert stats["publishes"] == 1

    def test_matrix_upgrade_in_place(self):
        inst = uniform_instance(16, seed=23)
        with InstanceArena() as arena:
            coords_only = arena.publish(inst)
            assert coords_only.matrix is None
            upgraded = arena.publish(inst, with_matrix=True)
            assert upgraded.key == coords_only.key
            assert upgraded.coords.name == coords_only.coords.name
            assert upgraded.matrix is not None
            _, matrix = attach_shared_instance(upgraded)
            np.testing.assert_array_equal(matrix, inst.distance_matrix())
            assert not matrix.flags.writeable

    def test_explicit_over_share_limit_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.engine.arena.MATRIX_SHARE_LIMIT", 4)
        base = uniform_instance(8, seed=24)
        explicit = TSPInstance(
            "explicit-8", None, EdgeWeightType.EXPLICIT,
            matrix=base.distance_matrix(),
        )
        with InstanceArena() as arena:
            with pytest.raises(ConfigError, match="share limit"):
                arena.publish(explicit)

    def test_explicit_matrix_roundtrip(self):
        base = uniform_instance(8, seed=25)
        explicit = TSPInstance(
            "explicit-8", None, EdgeWeightType.EXPLICIT,
            matrix=base.distance_matrix(),
        )
        with InstanceArena() as arena:
            ref = arena.publish(explicit)
            assert ref.coords is None and ref.matrix is not None
            attached, matrix = attach_shared_instance(ref)
            np.testing.assert_array_equal(matrix, explicit.matrix)
            np.testing.assert_array_equal(
                attached.distance_matrix(), explicit.matrix
            )

    def test_close_unlinks_blocks(self):
        inst = uniform_instance(16, seed=26)
        arena = InstanceArena()
        ref = arena.publish(inst)
        arena.close()
        clear_attachments()
        with pytest.raises(FileNotFoundError):
            attach_shared_instance(ref)

    def test_cross_process_attach_is_bit_identical(self):
        # A *separate* interpreter (not a fork: nothing inherited) maps
        # the named block and must read the exact published bytes.  The
        # child also exercises the attach-side resource_tracker
        # unregister — without it, the child exiting would unlink the
        # segment out from under the owner.
        inst = uniform_instance(48, seed=27)
        with InstanceArena() as arena:
            ref = arena.publish(inst)
            block = ref.coords
            child = (
                "import hashlib, json, sys\n"
                "import numpy as np\n"
                "from multiprocessing import resource_tracker, shared_memory\n"
                "spec = json.loads(sys.argv[1])\n"
                "shm = shared_memory.SharedMemory(name=spec['name'])\n"
                "try:\n"
                "    resource_tracker.unregister(shm._name, 'shared_memory')\n"
                "except Exception:\n"
                "    pass\n"
                "view = np.ndarray(tuple(spec['shape']),\n"
                "                  dtype=spec['dtype'], buffer=shm.buf)\n"
                "print(hashlib.sha256(view.tobytes()).hexdigest())\n"
                "shm.close()\n"
            )
            spec = {"name": block.name, "shape": block.shape,
                    "dtype": block.dtype}
            result = subprocess.run(
                [sys.executable, "-c", child, json.dumps(spec)],
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            expected = hashlib.sha256(
                np.ascontiguousarray(inst.coords, np.float64).tobytes()
            ).hexdigest()
            assert result.stdout.strip() == expected
            # The child exiting must not have torn the block down.
            clear_attachments()
            again, _ = attach_shared_instance(ref)
            assert np.asarray(again.coords).tobytes() == np.ascontiguousarray(
                inst.coords, np.float64
            ).tobytes()


class TestArenaSpec:
    def test_shared_spec_resolves_to_published_geometry(self):
        inst = uniform_instance(32, seed=28)
        with InstanceArena() as arena:
            ref = arena.publish(inst)
            spec = InstanceSpec.shared(ref)
            assert spec.kind == "arena"
            assert spec.size == inst.n
            assert spec.label == inst.name
            resolved = spec.resolve()
            assert content_key(resolved) == ref.key

    def test_shared_spec_without_ref_rejected(self):
        spec = InstanceSpec(kind="arena", value="deadbeef" * 8, size=8)
        with pytest.raises(ConfigError):
            spec.resolve()


class TestServiceArena:
    def _solve_hash(self, arena: str) -> tuple[str, dict]:
        request = SolveRequest.create(
            "uniform:24:9", solver="taxi", params={"sweeps": 10}, seed=7
        )
        with SolveService(
            ServiceConfig(arena=arena)
        ) as service:
            job = service.solve(request, timeout=120.0)
            stats = service.stats()
            return job.as_dict()["result"]["tour_hash"], stats

    def test_arena_on_is_bit_identical_to_off(self):
        hash_off, stats_off = self._solve_hash("off")
        hash_on, stats_on = self._solve_hash("on")
        assert hash_on == hash_off
        assert stats_off["arena"] == {"enabled": False}
        assert stats_on["arena"]["enabled"] is True
        assert stats_on["arena"]["publishes"] >= 1
        assert stats_on["arena"]["bytes"] > 0

    def test_auto_mode_follows_worker_count(self):
        assert ServiceConfig(workers=1).arena_enabled() is False
        assert ServiceConfig(workers=2).arena_enabled() is True
        assert ServiceConfig(workers=2, arena="off").arena_enabled() is False
        assert ServiceConfig(workers=1, arena="on").arena_enabled() is True
        with pytest.raises(ConfigError):
            ServiceConfig(arena="sometimes")
