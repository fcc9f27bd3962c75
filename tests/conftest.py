import importlib

import pytest


@pytest.fixture
def force_unconverged(monkeypatch):
    """Patch a slice-norm attribute, given by dotted path, so that it returns
    its real value with diagnostics flagged unconverged."""

    def patch(target: str):
        module_name, _, attr = target.rpartition(".")
        real = getattr(importlib.import_module(module_name), attr)

        def unconverged(*args, details=False, **kwargs):
            value, diag = real(*args, details=True, **kwargs)
            diag.converged = False
            return (value, diag) if details else value

        monkeypatch.setattr(target, unconverged)

    return patch


@pytest.fixture
def unconverged_radial_integral(monkeypatch):
    """Patch the trace check's radial_integral so that it returns its real
    value with diagnostics flagged unconverged."""
    from glsobolev import norms

    def unconverged(*args, **kwargs):
        value, diag = norms.radial_integral(*args, **kwargs)
        diag.converged = False
        return value, diag

    monkeypatch.setattr("glsobolev.verify.radial_integral", unconverged)
