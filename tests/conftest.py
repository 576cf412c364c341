"""Shared test set-up."""

import importlib.util
import warnings

import pytest

from gpgd import experiments

# Hypothesis' pytest plugin imports libcst to report a falsifying example,
# and importing libcst raises a DeprecationWarning (mypy_extensions.TypedDict),
# which under -W error ends the run in INTERNALERROR instead of printing the
# example.  Imported here with that warning ignored, libcst has nothing left
# to warn about then; no test's warning filters change.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401


@pytest.fixture(autouse=True)
def _stop_trial_workers():
    """Stops _trial_map's workers after every test: a worker sees the state
    of the process at its fork, so each test's monkeypatches reach the
    workers forked within it, and no test's workers serve the next."""
    yield
    experiments._stop_workers()
