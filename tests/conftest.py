"""Shared pytest configuration: the golden-regression update flag, a
fixture that forces the NumPy code in place of the compiled kernels,
and the serving helpers (a fast-stopping HTTP server thread and a held
dispatch slot)."""

import threading
import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden-regression fixtures in tests/golden/ "
             "instead of asserting against them",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should regenerate golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def numpy_sweeps(monkeypatch):
    """Run the NumPy code instead of both compiled kernels.

    The macro kernel runs its NumPy sweep loop and Ward clustering its
    NumPy chain.  Workers forked while it is active inherit it.
    """
    from repro.kernels import compiled

    monkeypatch.setattr(compiled, "_loaded", (None, "disabled by test"))


def serve_in_thread(server):
    """Run ``server.serve_forever`` on a daemon thread and return it.

    ``serve_forever`` checks for ``shutdown()`` once per poll interval,
    so its default 0.5 s poll makes every teardown wait up to that long;
    the tests poll every 10 ms instead.
    """
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01},
        daemon=True,
    )
    thread.start()
    return thread


#: Seed of the filler request :func:`hold_slot` blocks; no test solves
#: with it, so the hook never stalls any other task.
FILLER_SEED = 424_242


class SlotHold:
    """Keeps a ``workers=1`` service's one dispatch slot busy.

    Calling it with a started service submits a small filler request
    whose task blocks in a task hook, and returns once the filler's
    round is running and its task waits in the hook.  Requests
    submitted after that wait in the queue until :meth:`release`, then
    leave as one round.  The filler is an ordinary job: it counts
    toward ``queue_depth`` while it runs and toward ``completed`` when
    it ends (its own long deadline overrides a service
    ``default_deadline``).  A test that installs a task hook of its own
    after the hold restores it before the fixture restores the hold's.
    """

    def __init__(self):
        self._entered = threading.Event()
        self._released = threading.Event()
        self._previous = None
        self._installed = False

    def __call__(self, service):
        from repro.engine.runner import set_task_hook
        from repro.service import SolveRequest

        assert service.config.workers == 1, "the hold needs the inline pool"
        assert not self._installed, "one hold per test"

        def block(task):
            if task.seed == FILLER_SEED:
                self._entered.set()
                self._released.wait(60)
            elif self._previous is not None:
                self._previous(task)

        self._previous = set_task_hook(block)
        self._installed = True
        filler = service.submit(SolveRequest.create(
            "uniform:8:1", solver="sa_tsp", params={"sweeps": 1},
            seed=FILLER_SEED, deadline_seconds=600.0,
        ))
        assert self._entered.wait(30), filler
        assert filler.status == "running", filler
        return filler

    def release(self):
        self._released.set()

    def release_on_stop(self, service):
        """Release from another thread once ``service`` begins to stop.

        A ``stop()``/``close()`` call blocks until every round ends, so
        the release has to come from another thread; it waits for the
        stop to begin (the service reports not ready) so the held jobs
        are still queued when it does.
        """
        def release_when_stopping():
            deadline = time.monotonic() + 30
            while service.ready()[0] and time.monotonic() < deadline:
                time.sleep(0.002)
            self.release()

        threading.Thread(target=release_when_stopping, daemon=True).start()

    def restore(self):
        from repro.engine.runner import set_task_hook

        self.release()
        if self._installed:
            set_task_hook(self._previous)
            self._installed = False


@pytest.fixture
def hold_slot():
    """A :class:`SlotHold`, released and unhooked after the test."""
    hold = SlotHold()
    yield hold
    hold.restore()
