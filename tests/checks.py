"""Checks the tests share that no command runs: a finite-difference
gradient checker for tape graphs, the completeness of a gap matrix, an
out-of-place Adam update to hold the in-place one to, and the path of the
results table the package ships."""

from importlib import resources
from pathlib import Path

import numpy as np


def dense_grad(p) -> np.ndarray:
    """A copy of ``p.grad`` as one array: a ``tape.RowGrad`` densified."""
    grad = p.grad
    return grad.dense(len(p.data)) if hasattr(grad, "rows") else grad.copy()


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
    analytic = [np.zeros_like(p.data) if p.grad is None else dense_grad(p)
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
                failures.append((f"param{pi}", i, an, fd, rel))
    return {"max_rel_err": max_rel, "failures": failures, "ok": not failures}


def complete(matrix) -> bool:
    """Whether a GapMatrix has a cell for every (train year, test year)."""
    return all((t1, t2) in matrix.cells
               for t1 in matrix.years for t2 in matrix.years)


def bundled_results_path() -> Path:
    """The transcribed published recall/boost table shipped with the
    package, which ``report --table`` reads."""
    return Path(resources.files("templink") / "data" / "published_results.csv")


class OutOfPlaceAdam:
    """``trainer.Adam`` written with one new array per operation, in the
    same operation order; the in-place optimizer must equal it bit for bit."""

    def __init__(self, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.step_count = 0

    def step(self, params: dict, clip: float = 0.0):
        grads = {n: p.grad for n, p in params.items() if p.grad is not None}
        if clip > 0 and grads:
            total = np.sqrt(np.float64(
                sum((g.astype(np.float64) ** 2).sum() for g in grads.values())))
            if total > clip:
                factor = np.float32(clip / total)
                grads = {n: g * factor for n, g in grads.items()}
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, g in sorted(grads.items()):
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = (self.beta1 * self.m[name]
                            + (1 - self.beta1) * g).astype(np.float32)
            self.v[name] = (self.beta2 * self.v[name]
                            + (1 - self.beta2) * g * g).astype(np.float32)
            m_hat = self.m[name] / np.float32(bias1)
            v_hat = self.v[name] / np.float32(bias2)
            p.data = (p.data - np.float32(self.lr) * m_hat
                      / (np.sqrt(v_hat) + np.float32(self.eps))).astype(np.float32)
