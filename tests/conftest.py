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


@pytest.fixture
def unconverged_slice_rows(monkeypatch):
    """Patch a slice-row batch, given by the dotted path where its caller
    looks it up, so that its rows of u, or of |u'| with ``gradient``, come
    back with diagnostics flagged unconverged."""

    def patch(target: str, gradient: bool):
        module_name, _, attr = target.rpartition(".")
        real = getattr(importlib.import_module(module_name), attr)

        def rows(u, row_gradient, A, ps, *lams):
            outcomes = real(u, row_gradient, A, ps, *lams)
            for outcome in outcomes:
                if row_gradient == gradient and isinstance(outcome, tuple):
                    outcome[1].converged = False
            return outcomes

        monkeypatch.setattr(target, rows)

    return patch


@pytest.fixture
def unconverged_grand_slices(force_unconverged, unconverged_slice_rows):
    """Flag unconverged every slice norm that grand computes of u, or of |u'|
    with ``gradient``: in a batch (grand._slice_rows) and alone
    (grand.weighted_lp_norm or grand.weighted_gradient_norm)."""

    def patch(gradient: bool):
        force_unconverged(
            "glsobolev.grand." + ("weighted_gradient_norm" if gradient else "weighted_lp_norm")
        )
        unconverged_slice_rows("glsobolev.grand._slice_rows", gradient)

    return patch
