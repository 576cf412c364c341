"""Shared test set-up."""

import pytest

from gpgd import experiments


@pytest.fixture(autouse=True)
def _stop_trial_workers():
    """Stops _trial_map's workers after every test: a worker sees the state
    of the process at its fork, so each test's monkeypatches reach the
    workers forked within it, and no test's workers serve the next."""
    yield
    experiments._stop_workers()
