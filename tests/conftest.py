import dataclasses

# The CLI pins BLAS and OpenMP to one thread before numpy loads, unless the
# caller set a count (`cli.BLAS_THREAD_VARS`).  Importing it first gives the
# in-process runs of the suite the same default, and with it the CLI's bytes.
import modnudge.cli  # noqa: F401  (must run before anything imports numpy)
import pytest

from modnudge import experiments as ex


@pytest.fixture
def tampered_gain(monkeypatch):
    """Perturb the gain of the explicit update by 1e-3 wherever experiments
    calls it, so a property suite with teeth must fail."""
    exact = ex.step2a_explicit

    def tampered(vtilde, u_obs, op, k, chi):
        res = exact(vtilde, u_obs, op, k, chi)
        return dataclasses.replace(res, v=vtilde + (1.0 + 1e-3) * (res.v - vtilde))

    monkeypatch.setattr(ex, "step2a_explicit", tampered)
