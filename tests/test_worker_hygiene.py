"""Pool workers are forked from the loaded process, hold no socket, and die with it.

Every ``WavefrontPool`` forks its workers, also inside a spawned
process (a shard), so a worker starts with the solver stack its parent
imported.  The pool's worker initializer then:

* points every inherited socket at ``/dev/null``, so a service's
  listening socket and client connections never live on in a worker;
* exits the worker when its parent dies, so a SIGKILLed service or
  shard leaves no pool workers behind.

Both hold for the workers forked at start and for those forked on a
respawn, from a process with live threads.
"""

import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.core.config import ServiceConfig
from repro.engine.wavefront import WavefrontPool
from repro.service.faults import FaultInjector
from repro.service.http import build_request
from repro.service.queue import SolveRequest, SolveService
from repro.service.shards import ShardedService, shard_for
from test_shards import _body, _solve

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)

#: Set by a spawned child after it imported this module: a forked pool
#: worker sees the child's value, a spawned one the import-time None.
_MARK = None


def _read_mark(_task):
    return _MARK


def _marks_from_spawned_pool(conn) -> None:
    global _MARK
    _MARK = "set after import"
    with WavefrontPool(workers=2) as pool:
        conn.send(pool.map(_read_mark, range(4)))


def _hold_prestarted_pool(conn) -> None:
    pool = WavefrontPool(workers=2, eager=True)
    pool.prestart()
    conn.send(pool.worker_pids())
    time.sleep(120)


def _spawn(target):
    """Run ``target(conn)`` in a spawned child; ``(process, parent end)``.

    Not a daemon: a daemonic process may not start pool workers.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=target, args=(child_conn,))
    process.start()
    child_conn.close()
    return process, parent_conn


def _reap(process, leftovers=()) -> None:
    """Kill a child and any processes a failed check left running."""
    if process.is_alive():
        process.kill()
    process.join(10)
    for pid in leftovers:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


def _sockets(pid: int) -> list[str]:
    """The socket fds ``pid`` holds, as ``"fd -> socket:[inode]"``."""
    held = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            held.append(f"{fd} -> {target}")
    return held


def _wait_gone(pids, seconds: float) -> list[int]:
    """Poll until every pid has exited; the ones still running after."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        alive = [pid for pid in pids if _alive(pid)]
        if not alive:
            return []
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


def _refused(port: int) -> bool:
    with socket.socket() as probe:
        probe.settimeout(2.0)
        try:
            probe.connect(("127.0.0.1", port))
        except OSError:
            return True
    return False


class TestForkedPool:
    def test_pool_in_a_spawned_process_forks_its_workers(self):
        process, conn = _spawn(_marks_from_spawned_pool)
        try:
            assert conn.poll(60), "spawned child sent no result"
            assert conn.recv() == ["set after import"] * 4
            process.join(30)
            assert process.exitcode == 0
        finally:
            _reap(process)

    def test_workers_exit_when_their_parent_is_killed(self):
        process, conn = _spawn(_hold_prestarted_pool)
        pids = []
        try:
            assert conn.poll(60), "spawned child sent no worker pids"
            pids = conn.recv()
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            assert _wait_gone(pids, 5.0) == []
        finally:
            _reap(process, pids)


class TestServiceWorkers:
    def test_no_worker_holds_a_socket_at_start_or_after_respawn(self):
        from repro.service.http import make_server

        service = SolveService(ServiceConfig(workers=2))
        server = make_server(service, port=0)
        service.start()
        try:
            started = service.pool.worker_pids()
            assert len(started) == 2
            assert _sockets(os.getpid()), "the service holds its socket"
            assert {pid: _sockets(pid) for pid in started} == {
                pid: [] for pid in started}

            assert FaultInjector.kill_worker(service.pool)
            # The first solve after the kill may still land on the
            # surviving worker; the broken pool respawns by the next.
            for seed in range(5):
                job = service.solve(SolveRequest.create(
                    "uniform:20:1", solver="taxi",
                    params={"sweeps": 10}, seed=seed,
                ), timeout=120)
                assert job.status == "done", job.error
                if service.pool.respawns:
                    break
            assert service.pool.respawns >= 1
            respawned = service.pool.worker_pids()
            assert len(respawned) == 2
            assert not set(respawned) & set(started)
            assert {pid: _sockets(pid) for pid in respawned} == {
                pid: [] for pid in respawned}
        finally:
            server.server_close()
            service.stop()


def _owned_body(shard: int, shards: int) -> dict:
    """A solve request the router sends to ``shard``."""
    for seed in range(1000):
        body = _body(seed=seed)
        if shard_for(build_request(body).fingerprint(), shards) == shard:
            return body
    raise AssertionError(f"no seed routes to shard {shard}")


@pytest.mark.slow
class TestShardWorkers:
    def test_killed_shard_leaves_no_workers_and_resolves_identically(
        self, monkeypatch
    ):
        with ShardedService(2, ServiceConfig(workers=2)) as fleet:
            body = _owned_body(0, fleet.shards)
            before = _solve(fleet, body)
            shard = fleet._procs[0]
            old_port = shard.port
            workers = _children(shard.pid)
            assert len(workers) == 2, workers
            # Hold the respawn until the dead shard has been inspected.
            inspected = threading.Event()
            revive = fleet._revive

            def held_revive(index):
                inspected.wait(30)
                revive(index)

            monkeypatch.setattr(fleet, "_revive", held_revive)
            os.kill(shard.pid, signal.SIGKILL)
            try:
                assert _wait_gone(workers, 5.0) == []
                assert _refused(old_port)
            finally:
                inspected.set()
                for pid in workers:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while fleet.shard_respawns.value < 1:
                assert time.monotonic() < deadline, "shard 0 not respawned"
                time.sleep(0.05)
            after = _solve(fleet, body)
            assert after["cached"] is False  # solved again on the new shard
            assert after["result"]["tour_hash"] == before["result"]["tour_hash"]
            assert len(_children(fleet._procs[0].pid)) == 2
