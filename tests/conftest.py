"""Shared pytest configuration: the golden-regression update flag and
a fixture that forces the NumPy code in place of the compiled kernels."""

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
