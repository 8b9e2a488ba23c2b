import gc
import inspect
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from checks import check_gradients, dense_grad
from templink import tape


def rnd(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape, scale=scale)


class TestRelu:
    def test_values(self):
        out = tape.relu(tape.const(np.array([[-1.0, 2.0]])))
        assert np.array_equal(out.data, [[0.0, 2.0]])

    def test_all_negative(self):
        out = tape.relu(tape.const(np.array([[-3.0, -0.5]])))
        assert np.array_equal(out.data, [[0.0, 0.0]])

    def test_subgradient_convention(self):
        # gradient is 1 at +2, 0 at -1, and 0 at exactly 0
        x = tape.param(np.array([[2.0, -1.0, 0.0]]))
        tape.relu(x).backward(np.ones((1, 3)))
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])


class TestSpmm:
    def test_identity_graph(self):
        s = sp.identity(3, format="csr")
        z = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(tape.spmm(s, tape.const(z)).data, z)

    def test_hand_product(self):
        s = sp.csr_matrix(np.full((2, 2), 0.5))
        z = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(tape.spmm(s, tape.const(z)).data, np.ones((2, 2)))

    def test_zero_input(self):
        s = sp.csr_matrix(np.full((2, 2), 0.5))
        out = tape.spmm(s, tape.const(np.zeros((2, 3))))
        assert not out.data.any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tape.spmm(sp.identity(3, format="csr"), tape.const(np.zeros((2, 2))))


def centering_matrix(n):
    """R = I - (1/n) e e^T as a plain array."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


class TestCentering:
    def test_n2(self):
        r = centering_matrix(2)
        assert np.allclose(r, [[0.5, -0.5], [-0.5, 0.5]])

    def test_annihilates_ones(self):
        r = centering_matrix(5)
        assert np.allclose(r @ np.ones(5), 0.0)
        assert np.allclose(r @ r, r)  # idempotent
        assert np.isclose(np.trace(r), 4.0)


def hsic_literal(z1, z2):
    """Independent oracle: explicit centering matrix and Gram trace."""
    n = z1.shape[0]
    r = centering_matrix(n)
    k1 = z1 @ z1.T
    k2 = z2 @ z2.T
    return (n - 1.0) ** -2 * np.trace(r @ k1 @ r @ k2)


class TestHsic:
    def test_identity_pair(self):
        val = float(tape.hsic(tape.const(np.eye(2)),
                              tape.const(np.eye(2))).data)
        assert np.isclose(val, 1.0)

    def test_constant_rows_zero(self):
        z1 = rnd((5, 3), 1)
        z2 = np.ones((5, 2)) * 7.0
        val = float(tape.hsic(tape.const(z1), tape.const(z2)).data)
        assert abs(val) < 1e-12

    def test_matches_literal_oracle(self):
        for seed in range(20):
            z1 = rnd((6, 3), seed)
            z2 = rnd((6, 4), 1000 + seed)
            got = float(tape.hsic(tape.const(z1), tape.const(z2)).data)
            assert abs(got - hsic_literal(z1, z2)) < 1e-10

    def test_symmetry_and_nonnegativity(self):
        z1, z2 = rnd((7, 3), 3), rnd((7, 5), 4)
        a = float(tape.hsic(tape.const(z1), tape.const(z2)).data)
        b = float(tape.hsic(tape.const(z2), tape.const(z1)).data)
        assert np.isclose(a, b)
        assert a >= 0.0

    def test_orthogonal_invariance(self):
        z1, z2 = rnd((6, 4), 5), rnd((6, 4), 6)
        q, _ = np.linalg.qr(rnd((4, 4), 7))
        a = float(tape.hsic(tape.const(z1), tape.const(z2)).data)
        b = float(tape.hsic(tape.const(z1 @ q), tape.const(z2)).data)
        assert np.isclose(a, b)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            tape.hsic(tape.const(np.ones((1, 2))), tape.const(np.ones((1, 2))))


class TestElLoss:
    def test_single_pair_is_zero(self):
        assert float(tape.el_loss(tape.const([[4.2]])).data) == 0.0

    def test_uniform_scores(self):
        v = float(tape.el_loss(tape.const(np.zeros((2, 2)))).data)
        assert np.isclose(v, np.log(2.0))

    def test_wide_margin(self):
        s = np.full((2, 2), -10.0)
        np.fill_diagonal(s, 10.0)
        v = float(tape.el_loss(tape.const(s)).data)
        assert np.isclose(v, np.log(1 + np.exp(-20.0)), rtol=1e-6)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            tape.el_loss(tape.const(np.zeros((2, 3))))

    def test_margin_monotonicity(self):
        # loss decreases as the diagonal margin grows on a 2x2 probe
        losses = [float(tape.el_loss(tape.const(
                      np.array([[m, 0.0], [0.0, m]]))).data)
                  for m in (0.0, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestMeanBags:
    """mean_bags reproduces the per-sequence gather / mean / concat tape
    bit for bit: forward, and the table gradient that tape accumulated."""

    @staticmethod
    def per_sequence(table, bags, g):
        rows = [table[b].mean(axis=0, dtype=np.float64).astype(table.dtype)
                for b in bags]
        grad = None
        for b, g_row in reversed(list(zip(bags, g))):
            full = np.zeros_like(table)
            np.add.at(full, b, np.broadcast_to(g_row / len(b),
                                               (len(b), g.shape[1])))
            grad = full.copy() if grad is None else grad + full
        return np.stack(rows), grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, n_bags, longest, pool", [
        (30, 13, 39, 30), (30, 13, 1, 30), (3000, 40, 70, 5),
        (3000, 300, 70, 3000)], ids=["mixed", "single_id", "five_ids", "wide"])
    def test_matches_per_sequence_tape(self, rows, n_bags, longest, pool, dtype):
        # the forward sums in scipy's csr_matvecs order, which scipy does not
        # document: one-id bags, bags over 5 ids and long bags over a wide
        # table pin it
        rng = np.random.default_rng(40)
        table = rng.uniform(-0.2, 0.2, size=(rows, 16)).astype(dtype)
        pick = (np.arange(rows) if pool == rows
                else rng.choice(rows, size=pool, replace=False))
        bags = [pick[rng.integers(0, pool, size=rng.integers(1, longest + 1))]
                .tolist() for _ in range(n_bags)]
        g = rng.normal(size=(n_bags, 16)).astype(dtype)
        want_rows, want_grad = self.per_sequence(table, bags, g)
        theta = tape.param(table)
        out = tape.mean_bags(theta, tape.Bags(bags))
        out.backward(g)
        assert out.data.tobytes() == want_rows.tobytes()
        assert dense_grad(theta).tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_grad_holds_the_bags_ids(self, dtype):
        # the table's gradient is a RowGrad over the distinct ids, ascending,
        # whose dense form is the per-sequence gradient bit for bit
        rng = np.random.default_rng(44)
        table = rng.uniform(-0.2, 0.2, size=(400, 16)).astype(dtype)
        bags = [rng.integers(0, 400, size=rng.integers(1, 30)).tolist()
                for _ in range(25)]
        g = rng.normal(size=(25, 16)).astype(dtype)
        theta = tape.param(table)
        tape.mean_bags(theta, tape.Bags(bags)).backward(g)
        grad = theta.grad
        assert isinstance(grad, tape.RowGrad)
        assert grad.rows.tolist() == sorted({i for b in bags for i in b})
        assert grad.values.dtype == dtype
        assert grad.values.shape == (len(grad.rows), 16)
        want = self.per_sequence(table, bags, g)[1]
        assert grad.dense(len(table)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("second", ["mean_bags", "gather_rows"])
    def test_two_uses_accumulate_densely(self, second):
        # a second gradient into the table makes it dense: the sum of the
        # two dense gradients, bit for bit
        rng = np.random.default_rng(45)
        table = rng.normal(size=(300, 8)).astype(np.float32)
        bags = [[rng.integers(0, 300, size=rng.integers(1, 20)).tolist()
                 for _ in range(12)] for _ in range(2)]
        g = [rng.normal(size=(12, 8)).astype(np.float32) for _ in range(2)]

        def use(theta, which):
            if which == 1 and second == "gather_rows":
                return tape.gather_rows(theta, [b[0] for b in bags[1]])
            return tape.mean_bags(theta, tape.Bags(bags[which]))

        apart = []
        for which in (0, 1):
            theta = tape.param(table)
            use(theta, which).backward(g[which])
            apart.append(dense_grad(theta))
        theta = tape.param(table)
        both = tape.concat_rows([use(theta, 0), use(theta, 1)])
        both.backward(np.concatenate(g))
        assert isinstance(theta.grad, np.ndarray)
        assert theta.grad.tobytes() == (apart[1] + apart[0]).tobytes()

    def test_non_leaf_table_gets_dense_gradient(self):
        rng = np.random.default_rng(46)
        table = rng.normal(size=(200, 8)).astype(np.float32)
        bags = tape.Bags([rng.integers(0, 200, size=rng.integers(1, 15))
                          .tolist() for _ in range(10)])
        g = rng.normal(size=(10, 8)).astype(np.float32)
        direct = tape.param(table)
        tape.mean_bags(direct, bags).backward(g)
        theta = tape.param(table)
        tape.mean_bags(tape.scale(theta, 1.0), bags).backward(g)
        assert isinstance(theta.grad, np.ndarray)
        assert theta.grad.tobytes() == dense_grad(direct).tobytes()

    def test_no_bags(self):
        out = tape.mean_bags(tape.param(np.ones((4, 3), dtype=np.float32)),
                             tape.Bags([]))
        assert out.shape == (0, 3)

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError, match="bag 1 is empty"):
            tape.mean_bags(np.ones((4, 2)), tape.Bags([[1, 2], [], [3]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_independent_of_other_bags(self, dtype):
        # one Bags over A + B ranks and sums the bags together; its rows are
        # those of separate calls over A and over B, bit for bit
        rng = np.random.default_rng(43)
        table = rng.normal(size=(500, 16)).astype(dtype)
        a, b = ([rng.integers(0, 500, size=rng.integers(1, longest))
                 .tolist() for _ in range(n)] for n, longest in ((40, 30),
                                                                 (25, 90)))
        joint = tape.mean_bags(table, tape.Bags(a + b)).data
        apart = [tape.mean_bags(table, tape.Bags(x)).data for x in (a, b)]
        assert joint.tobytes() == np.concatenate(apart).tobytes()

    @staticmethod
    def csr_product(table, bags):
        """The forward as one float64 product with a CSR bag matrix (row i
        holds ``bags[i]`` in order, duplicates included), divided by the bag
        lengths: scipy's csr_matvecs adds each bag's rows into a zeroed row
        in stored order."""
        lens = np.array([len(b) for b in bags])
        ids = np.concatenate(bags)
        used, col = np.unique(ids, return_inverse=True)
        b = sp.csr_matrix((np.ones(len(ids)), col,
                           np.concatenate([[0], lens.cumsum()])),
                          shape=(len(bags), len(used)))
        return ((b @ table[used].astype(np.float64)) / lens[:, None]
                ).astype(table.dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["one_id", "duplicates", "one_long_bag",
                                      "mixed_wide"])
    def test_forward_matches_csr_product(self, case, dtype):
        rng = np.random.default_rng(41)
        table = rng.normal(size=(3000, 16)).astype(dtype)
        table[0] = -0.0  # a zeroed sum turns it into +0.0
        bags = {
            "one_id": [[int(i)] for i in rng.integers(0, 3000, size=50)] + [[0]],
            "duplicates": [[7, 7, 7], [3, 9, 3, 9, 3], [0] * 12, [9, 3, 9]],
            "one_long_bag": [rng.integers(0, 3000, size=2000).tolist()],
            "mixed_wide": [rng.integers(0, 3000, size=rng.integers(1, 121))
                           .tolist() for _ in range(300)],
        }[case]
        out = tape.mean_bags(table, tape.Bags(bags)).data
        assert out.tobytes() == self.csr_product(table, bags).tobytes()


class TestGradients:
    def test_quadratic_closed_form(self):
        theta = tape.param(np.array([[1.0, 2.0]]))
        report = check_gradients(lambda: tape.sum_squares(theta), [theta])
        assert report["ok"], report
        assert report["max_rel_err"] < 1e-6
        theta.zero_grad()
        tape.sum_squares(theta).backward()
        assert np.allclose(theta.grad, [[2.0, 4.0]])

    def test_constant_loss(self):
        theta = tape.param(np.zeros((2, 2)))
        tape.scale(tape.const(np.array(1.0)), 1.0).backward()
        assert theta.grad is None

    def test_backward_frees_the_tape(self):
        # the tape must be released by reference counting alone
        theta = tape.param(rnd((3, 2), 30))
        gc.disable()
        try:
            mid = tape.matmul(theta, tape.transpose(theta))
            probe = weakref.ref(mid.data)
            loss = tape.sum_squares(mid)
            loss.backward()
            del mid, loss
            assert probe() is None
        finally:
            gc.enable()

class TestGatherRows:
    @pytest.mark.parametrize("idx", [[0, 2, 3, 5], [5], [], [0, 2, 2, 5],
                                     [3, 1]])
    def test_scatter_matches_add_at(self, idx):
        # the bits add.at gives onto zeros, -0.0 mapped to +0.0 and NaN
        # kept, for increasing, single, empty, repeated and unordered rows
        table = tape.param(np.ones((6, 3), dtype=np.float32))
        g = np.random.default_rng(len(idx)).normal(
            size=(len(idx), 3)).astype(np.float32)
        g.flat[::2] = np.float32(-0.0)
        if len(idx) > 1:
            g[1, 1] = np.float32("nan")
        tape.gather_rows(table, idx).backward(g)
        want = np.zeros_like(table.data)
        np.add.at(want, np.asarray(idx, dtype=np.intp), g)
        assert table.grad.tobytes() == want.tobytes()
        assert not (np.signbit(table.grad) & (table.grad == 0)).any()


class TestScatterAdd:
    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("idx", [[], [3], [0, 2, 3, 5], [0, 2, 2, 5, 2],
                                     [5, 1, 1, 0, 5, 5]])
    def test_bits_equal_add_at(self, idx, dtype, contiguous):
        # values column 0 gets 1, big and -big at a row's first, second and
        # third occurrence: added in that order they give 0, in reverse 1.
        # Every third value of the other columns is -0.0
        rng = np.random.default_rng(len(idx))
        wide = rng.normal(size=(len(idx), 7)).astype(dtype)
        wide.flat[::3] = -0.0
        big = 2 / np.finfo(dtype).eps
        for i, row in enumerate(idx):
            wide[i, 1] = (1.0, big, -big)[idx[:i].count(row) % 3]
        values = wide[:, 1:5]
        if contiguous:
            values = values.copy()
        elif len(idx) > 1:
            assert not values.flags.c_contiguous
        want = np.zeros((6, 4), dtype=dtype)
        np.add.at(want, np.asarray(idx, dtype=np.intp), values)
        got = tape._scatter_add(6, idx, values, dtype)
        assert got.dtype == dtype and got.shape == (6, 4)
        assert got.tobytes() == want.tobytes()
        assert values.tobytes() == wide[:, 1:5].tobytes()  # input untouched


def _op_cases():
    """{tape function: (parameters, loss)}, one gradient check per op."""
    s = sp.csr_matrix(np.array([[0.5, 0.5, 0.0],
                                [0.5, 0.3, 0.2],
                                [0.0, 0.2, 0.8]]))
    a = tape.param(rnd((3, 4), 20) + 0.05)   # offset keeps relu off kinks
    b = tape.param(rnd((4, 3), 21))
    cases = {
        "add": ([a, b], lambda: tape.sum_squares(
            tape.add(a, tape.transpose(b)))),
        "scale": ([a], lambda: tape.sum_squares(tape.scale(a, 0.7))),
        "sum_squares": ([a], lambda: tape.sum_squares(a)),
        "matmul": ([a, b], lambda: tape.sum_squares(tape.matmul(a, b))),
        "relu": ([a], lambda: tape.sum_squares(tape.relu(a))),
        "hsic": ([a, b], lambda: tape.hsic(a, tape.transpose(b))),
        "gram_diff_sq": ([a, b], lambda: tape.gram_diff_sq(
            a, tape.transpose(b))),
        "el_loss": ([a], lambda: tape.el_loss(
            tape.matmul(a, tape.transpose(a)))),
        "softmax_rows": ([a], lambda: tape.sum_squares(
            tape.softmax_rows(tape.scale(a, 2.0)))),
        "spmm": ([a], lambda: tape.sum_squares(tape.spmm(s, a))),
        "center_rows": ([a], lambda: tape.sum_squares(tape.center_rows(a))),
        "mean_bags": ([a], lambda: tape.sum_squares(
            tape.mean_bags(a, tape.Bags([[2, 0, 2], [1], [0, 1, 2, 2]])))),
        "gather_rows": ([a], lambda: tape.sum_squares(
            tape.gather_rows(a, [0, 2, 2]))),
        "concat_cols": ([a, b], lambda: tape.sum_squares(
            tape.concat_cols([a, tape.transpose(b)]))),
        "transpose": ([a], lambda: tape.sum_squares(tape.transpose(a))),
        "concat_rows": ([a, b], lambda: tape.sum_squares(
            tape.concat_rows([a, tape.transpose(b)]))),
    }
    return cases


def test_every_op_has_a_gradient_case():
    ops = {name for name, fn in vars(tape).items()
           if inspect.isfunction(fn) and fn.__module__ == tape.__name__
           and not name.startswith("_")}
    assert set(_op_cases()) == ops - {"param", "const"}


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_op_gradient(name):
    params, loss_fn = _op_cases()[name]
    report = check_gradients(loss_fn, params, eps=1e-3, tol=1e-4)
    assert report["ok"], (name, report["failures"][:3], report["max_rel_err"])
