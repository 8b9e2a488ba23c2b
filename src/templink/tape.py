"""Reverse-mode autodiff over dense numpy arrays plus a sparse propagation op.

Every loss in the package is assembled from the primitives here. Tensors
carry float32 data by default; reductions (trace, Frobenius norms,
logsumexp, bag means) accumulate in float64 before casting back. Passing
float64 leaves, as the gradient tests do, runs the whole graph in float64.
The module needs numpy alone: ``spmm`` multiplies by whatever sparse
matrix its caller built, so only the code that builds one imports scipy.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


class RowGrad:
    """Gradient of a table that is zero outside ``rows``: ``values[i]`` is
    the gradient of row ``rows[i]``, the rows distinct and ascending."""

    __slots__ = ("rows", "values")

    def __init__(self, rows, values):
        self.rows = rows
        self.values = values

    def dense(self, n_rows: int) -> np.ndarray:
        """The n_rows-row array: +0.0 outside ``rows``, ``values`` in them."""
        full = np.zeros((n_rows, self.values.shape[1]), self.values.dtype)
        full[self.rows] = self.values
        return full


class Tensor:
    """Node in the computation graph.

    Gradients accumulate additively at fan-out; ``backward`` replays the
    recorded graph once in reverse topological order. A non-leaf node's
    ``grad`` is freed once its ``_backward`` has used it; a leaf keeps its
    gradient for the optimizer.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        """Add ``g`` into ``grad``. A leaf keeps a first ``RowGrad`` as it
        is; anything else, a second accumulation included, is dense."""
        if isinstance(g, RowGrad):
            if self.grad is None and self._backward is None:
                self.grad = g
                return
            g = g.dense(len(self.data))
        g = np.asarray(g, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = g.copy()
        elif isinstance(self.grad, RowGrad):
            self.grad = self.grad.dense(len(self.data)) + g
        else:
            self.grad = self.grad + g

    def backward(self, grad=None):
        if grad is None:
            grad = np.ones_like(self.data)
        order = []
        _post_order(self, set(), order)
        self._accumulate(grad)
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
                t.grad = None


def _post_order(t, seen, order):
    """Append ``t`` after its ancestors. Module level, not a closure in
    ``backward``: a self-referencing closure would keep the tape alive."""
    if id(t) in seen:
        return
    seen.add(id(t))
    for p in t._parents:
        _post_order(p, seen, order)
    order.append(t)


def param(data):
    return Tensor(np.asarray(data), requires_grad=True)


def const(data):
    return Tensor(np.asarray(data))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else const(x)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return Tensor(out_data, parents=(a, b), backward=bwd)


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return Tensor(a.data * np.asarray(c, dtype=a.dtype), parents=(a,), backward=bwd)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=bwd)


def transpose(a):
    a = _as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return Tensor(a.data.T.copy(), parents=(a,), backward=bwd)


def relu(a):
    """Elementwise max(x, 0). Subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(np.where(mask, a.data, 0), parents=(a,), backward=bwd)


def spmm(S, z: Tensor):
    """Product S @ Z, cast to Z's dtype, for S a scipy.sparse CSR matrix (a
    normalized graph or the feature matrix) or a dense array;
    grad_Z = S.T @ grad_out."""
    z = _as_tensor(z)
    if S.shape[1] != z.data.shape[0]:
        raise ValueError(f"spmm shape mismatch: {S.shape} @ {z.data.shape}")
    out_data = np.asarray(S @ z.data, dtype=z.dtype)

    def bwd(g):
        if z.requires_grad:
            z._accumulate(np.asarray(S.T @ g))

    return Tensor(out_data, parents=(z,), backward=bwd)


def _scatter_add(n_rows, idx, values, dtype):
    """The (n_rows, width) ``dtype`` array ``np.add.at`` gives when it adds
    ``values[i]`` (of shape ``idx.shape + (width,)``) onto row ``idx[i]`` of
    zeros. It runs one ``np.add.at`` over the flattened array, at positions
    ``row * width + col``: each element gets the same additions in the same
    order, so the bits are equal, and the 1-D form is several times faster."""
    width = values.shape[-1]
    out = np.zeros((n_rows, width), dtype=dtype)
    flat = (np.asarray(idx, dtype=np.intp)[..., None] * width
            + np.arange(width)).ravel()
    np.add.at(out.ravel(), flat, values.ravel())
    return out


def gather_rows(table, idx):
    """Rows ``table[idx]``; backward scatter-adds into the table."""
    table = _as_tensor(table)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            table._accumulate(_scatter_add(len(table.data), idx, g,
                                           table.dtype))

    return Tensor(out_data, parents=(table,), backward=bwd)


def _concat(tensors, axis: int):
    """``np.concatenate`` along ``axis``; backward hands each input its slice."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = np.cumsum([t.data.shape[axis] for t in tensors])

    def bwd(g):
        for t, part in zip(tensors, np.split(g, ends[:-1], axis=axis)):
            if t.requires_grad:
                t._accumulate(part)

    return Tensor(out_data, parents=tuple(tensors), backward=bwd)


def concat_cols(tensors):
    return _concat(tensors, axis=1)


def concat_rows(tensors):
    return _concat(tensors, axis=0)


class Bags:
    """Non-empty lists of table row ids, packed once for any number of
    ``mean_bags`` calls. ``lists`` keeps the lists, ``lens`` their lengths
    and ``ids`` their concatenation; ``order`` ranks the bags longest first
    (stable), and ``gather[p]`` holds the id at position p of each bag, in
    that order, that reaches it."""

    __slots__ = ("lists", "lens", "ids", "order", "gather")

    def __init__(self, lists):
        self.lists = lists
        self.lens = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        empty = np.flatnonzero(self.lens == 0)
        if empty.size:
            raise ValueError(f"bag {empty[0]} is empty")
        self.ids = np.fromiter(chain.from_iterable(lists), dtype=np.intp)
        self.order = np.argsort(-self.lens, kind="stable")
        sorted_lens = self.lens[self.order]
        first = (self.lens.cumsum() - self.lens)[self.order]
        self.gather = [self.ids[first[:np.count_nonzero(sorted_lens > p)] + p]
                       for p in range(self.lens.max(initial=0))]

    def __len__(self):
        return len(self.lists)


def mean_bags(table, bags: Bags):
    """Row i is the mean of the table rows listed in bag i, with the
    arithmetic of one ``mean(axis=0, dtype=float64)`` per bag: a zeroed
    float64 row to which the bag's rows are added in order, duplicates
    included, then divided by the bag's length. The bags are summed longest
    first, one vectorised addition per token position over every bag that
    reaches it, so each row depends on its own bag alone. The backward sums
    each bag's share per distinct id, then adds the sums onto +0.0 per id,
    later bags first, as one node per bag would: a ``RowGrad`` over the
    bags' ids, each row the bits of that row of the dense gradient.
    """
    table = _as_tensor(table)
    n_rows, dim = table.data.shape
    lens, order = bags.lens, bags.order
    acc = np.zeros((len(lens), dim))
    for idx in bags.gather:
        acc[:len(idx)] += table.data[idx]
    acc /= lens[order][:, None]
    out_data = np.empty((len(lens), dim), dtype=table.dtype)
    out_data[order] = acc

    def bwd(g):
        if table.requires_grad:
            # keys ascend later bags first, ids ascending within a bag
            later = np.repeat(np.arange(len(lens))[::-1], lens)
            pairs, pair_of = np.unique(later * n_rows + bags.ids,
                                       return_inverse=True)
            sums = _scatter_add(len(pairs), pair_of, np.repeat(
                g / lens[:, None].astype(g.dtype), lens, axis=0), g.dtype)
            rows, row_of = np.unique(pairs % n_rows, return_inverse=True)
            table._accumulate(RowGrad(rows, _scatter_add(
                len(rows), row_of, sums, table.dtype)))

    return Tensor(out_data, parents=(table,), backward=bwd)


def center_rows(a):
    """Subtract the column mean from every row (multiplication by R)."""
    a = _as_tensor(a)
    mu = a.data.mean(axis=0, dtype=np.float64).astype(a.dtype)
    out_data = a.data - mu

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g - g.mean(axis=0, dtype=np.float64).astype(a.dtype))

    return Tensor(out_data, parents=(a,), backward=bwd)


def sum_squares(a):
    """Scalar sum of squared entries, accumulated in float64."""
    a = _as_tensor(a)
    val = np.float64((a.data.astype(np.float64) ** 2).sum())

    def bwd(g):
        if a.requires_grad:
            a._accumulate(2.0 * float(g) * a.data)

    return Tensor(np.asarray(val, dtype=a.dtype), parents=(a,), backward=bwd)


def gram_diff_sq(a, b):
    """Scalar ||A A^T - B B^T||_F^2 for A, B of n rows, in O(n (ga + gb)^2)
    with no n x n matrix: with Q from the thin QR of [A, B], it is
    ||P_A P_A^T - P_B P_B^T||_F^2 for P_A = Q^T A and P_B = Q^T B. The
    gradients grad_A = 4 (A A^T A - B B^T A) and
    grad_B = -4 (A A^T B - B B^T B) need no QR. Both are computed in
    float64, the gradients' A^T A-style sums over the n rows included."""
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data.astype(np.float64), b.data.astype(np.float64)
    q, _ = np.linalg.qr(np.concatenate([x, y], axis=1))
    p_a, p_b = q.T @ x, q.T @ y
    val = np.float64(np.square(p_a @ p_a.T - p_b @ p_b.T).sum())

    def bwd(g):
        c = 4.0 * float(g)
        if a.requires_grad:
            a._accumulate(c * (x @ (x.T @ x) - y @ (y.T @ x)))
        if b.requires_grad:
            b._accumulate(-c * (x @ (x.T @ y) - y @ (y.T @ y)))

    return Tensor(np.asarray(val, dtype=a.dtype), parents=(a, b), backward=bwd)


def softmax_rows(a):
    a = _as_tensor(a)
    x = a.data.astype(np.float64)
    x = x - x.max(axis=1, keepdims=True)
    p64 = np.exp(x)
    p64 /= p64.sum(axis=1, keepdims=True)
    p = p64.astype(a.dtype)

    def bwd(g):
        if a.requires_grad:
            dot = (g * p).sum(axis=1, keepdims=True)
            a._accumulate(p * (g - dot))

    return Tensor(p, parents=(a,), backward=bwd)


def el_loss(score_matrix):
    """Mean in-batch cross-entropy with gold on the diagonal.

    For row i the contribution is -s_ii + logsumexp_j s_ij; gradient wrt
    the score matrix is (softmax - I) / N.
    """
    s = _as_tensor(score_matrix)
    n, m = s.data.shape
    if n != m:
        raise ValueError(f"el_loss expects a square score matrix, got {s.data.shape}")
    x = s.data.astype(np.float64)
    mx = x.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(x - mx).sum(axis=1))
    val = np.float64((lse - np.diag(x)).mean())
    p = np.exp(x - lse[:, None])

    def bwd(g):
        if s.requires_grad:
            gr = p.copy()
            gr[np.arange(n), np.arange(n)] -= 1.0
            s._accumulate((float(g) / n) * gr.astype(s.dtype))

    return Tensor(np.asarray(val, dtype=s.dtype), parents=(s,), backward=bwd)


def hsic(z1, z2):
    """Hilbert-Schmidt independence criterion with inner-product kernels.

    Computed through the factorization (n-1)^-2 ||(R Z1)^T (R Z2)||_F^2,
    which is O(n d1 d2); equal to the literal centered-Gram trace form.
    """
    z1, z2 = _as_tensor(z1), _as_tensor(z2)
    n = z1.data.shape[0]
    if z2.data.shape[0] != n:
        raise ValueError("hsic inputs must have the same number of rows")
    if n < 2:
        raise ValueError("hsic requires at least 2 rows")
    cross = matmul(transpose(center_rows(z1)), center_rows(z2))
    return scale(sum_squares(cross), (n - 1.0) ** -2)
