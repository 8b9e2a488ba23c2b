"""Checks the tests share that no command runs: a finite-difference
gradient checker for tape graphs and the completeness of a gap matrix."""

import numpy as np


def check_gradients(loss_fn, params, eps=1e-3, tol=1e-4, skip=None):
    """Compare tape gradients against central finite differences.

    ``loss_fn`` must be deterministic and return a scalar Tensor built
    from the given parameter Tensors. ``skip`` is an optional predicate
    (param, flat_index) -> bool excluding coordinates (e.g. relu kinks).
    Returns a report dict; ``max_rel_err`` is the headline number.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    failures = []
    max_rel = 0.0
    for pi, p in enumerate(params):
        flat = p.data.ravel()
        for i in range(flat.size):
            if skip is not None and skip(p, i):
                continue
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn().data)
            flat[i] = orig - eps
            f_minus = float(loss_fn().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            an = float(analytic[pi].ravel()[i])
            denom = max(abs(fd), abs(an), 1e-8)
            rel = abs(fd - an) / denom
            max_rel = max(max_rel, rel)
            if rel > tol:
                failures.append((p.name or f"param{pi}", i, an, fd, rel))
    return {"max_rel_err": max_rel, "failures": failures, "ok": not failures}


def complete(matrix) -> bool:
    """Whether a GapMatrix has a cell for every (train year, test year)."""
    return all((t1, t2) in matrix.cells
               for t1 in matrix.years for t2 in matrix.years)
