"""Node costs, stacked objective, Hessian bounds."""

import re

import numpy as np
import pytest

from dalopt.harness import generate_logistic_data, generate_quadratic_stack
from dalopt.objective import (
    LogisticCost,
    ObjectiveStack,
    QuadraticCost,
    grad_stack,
    save_dataset,
)

from oracles import node_costs, stack_of


def scalar_quadratic(center, curvature=1.0):
    return QuadraticCost(matrix=np.array([[curvature]]), linear=np.array([-curvature * center]))


def random_logistic_stack(rng, n=4, d=5, reg=1.0):
    costs = []
    for _ in range(n):
        a = rng.standard_normal(d - 1)
        b = int(rng.choice([-1, 1]))
        costs.append(LogisticCost(feature=a, label=b, reg=reg, n_nodes=n))
    return stack_of(tuple(costs))


def eval_stack(stack, x):
    """F(x) = sum_i f_i(x_i) for stacked x in R^{Nd}, from the per-node
    costs: grad_stack's finite-difference oracle."""
    blocks = np.asarray(x, dtype=float).reshape(stack.n_nodes, stack.dimension)
    return sum(c.value(xi) for c, xi in zip(node_costs(stack), blocks))


def exactly(message):
    return "^" + re.escape(message) + "$"


class TestEvalStack:
    def test_pure_quadratic_at_zero(self):
        stack = stack_of(tuple(scalar_quadratic(0.0) for _ in range(3)))
        assert eval_stack(stack, np.zeros(3)) == 0.0

    def test_each_block_at_its_minimizer(self):
        # value at the minimizer c is -curvature * c^2 / 2 per block
        stack = stack_of((scalar_quadratic(1.0), scalar_quadratic(2.0)))
        assert eval_stack(stack, np.array([1.0, 2.0])) == pytest.approx(-2.5, abs=1e-15)

    def test_matches_termwise_oracle(self, rng):
        # at consensus, F(1 (x) x) is the aggregate f(x) of the array form
        stack = random_logistic_stack(rng)
        x = rng.standard_normal(stack.dimension)
        oracle = stack.aggregate_value(x)
        assert eval_stack(stack, np.tile(x, stack.n_nodes)) == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        stack = random_logistic_stack(rng)
        with pytest.raises(ValueError, match="size"):
            grad_stack(stack, np.zeros(7))


class TestGradStack:
    def test_quadratic_at_minimizer(self):
        stack = stack_of((scalar_quadratic(2.0), scalar_quadratic(-1.0)))
        g = grad_stack(stack, np.array([2.0, -1.0]))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_logistic_finite_differences(self, rng):
        stack = random_logistic_stack(rng)
        n, d = stack.n_nodes, stack.dimension
        x = rng.standard_normal(n * d)
        g = grad_stack(stack, x)
        h = 1e-6
        for idx in range(n * d):
            e = np.zeros(n * d)
            e[idx] = h
            fd = (eval_stack(stack, x + e) - eval_stack(stack, x - e)) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_blockwise_decomposition(self, rng):
        stack = random_logistic_stack(rng)
        n, d = stack.n_nodes, stack.dimension
        x = rng.standard_normal(n * d)
        g0 = grad_stack(stack, x)
        x2 = x.copy()
        x2[d : 2 * d] += 1.0  # perturb block 1 only
        g1 = grad_stack(stack, x2)
        changed = np.abs(g1 - g0) > 0
        assert changed[d : 2 * d].any()
        changed[d : 2 * d] = False
        assert not changed.any()


class TestLogisticHessianBounds:
    def test_direct_arithmetic(self):
        # P=1, N=10, ||c||^2 = 4 -> (0.1, 1.1)
        a = np.array([1.0, np.sqrt(2.0)])  # ||c||^2 = 1 + 2 + 1 = 4
        cost = LogisticCost(feature=a, label=1, reg=1.0, n_nodes=10)
        lo, hi = cost.h_min, cost.h_max
        assert lo == pytest.approx(0.1, abs=1e-15)
        assert hi == pytest.approx(1.1, abs=1e-15)

    def test_sampled_curvature_within_bounds(self, rng):
        cost = LogisticCost(feature=rng.standard_normal(4), label=-1, reg=2.0, n_nodes=5)
        lo, hi = cost.h_min, cost.h_max
        h = 1e-5
        for _ in range(10_000):
            x = rng.standard_normal(5)
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            curv = float(u @ (cost.grad(x + h * u) - cost.grad(x - h * u))) / (2 * h)
            assert lo - 1e-6 <= curv <= hi + 1e-6

    def test_strong_convexity_and_lipschitz_sampled(self, rng):
        cost = LogisticCost(feature=rng.standard_normal(3), label=1, reg=1.0, n_nodes=4)
        lo, hi = cost.h_min, cost.h_max
        xs = rng.standard_normal((10_000, 4))
        ys = rng.standard_normal((10_000, 4))
        for x, y in zip(xs, ys):
            gap = cost.value(y) - cost.value(x) - float(cost.grad(x) @ (y - x))
            assert gap >= 0.5 * lo * float((x - y) @ (x - y)) - 1e-9
            gd = np.linalg.norm(cost.grad(x) - cost.grad(y))
            assert gd <= hi * np.linalg.norm(x - y) + 1e-9


class TestConditionNumber:
    def test_identical_quadratics(self):
        stack = stack_of(tuple(scalar_quadratic(0.0) for _ in range(3)))
        assert stack.h_max / stack.h_min == 1.0

    def test_from_logistic_bounds(self):
        # P=1, N=10, max ||c||^2 = 4 -> gamma = 1.1 / 0.1 = 11
        a4 = np.array([1.0, np.sqrt(2.0)])
        a0 = np.zeros(2)
        costs = (
            LogisticCost(feature=a4, label=1, reg=1.0, n_nodes=10),
            LogisticCost(feature=a0, label=-1, reg=1.0, n_nodes=10),
        )
        stack = stack_of(costs)
        assert stack.h_max / stack.h_min == pytest.approx(11.0, rel=1e-12)


class TestValidation:
    def test_indefinite_quadratic_rejected(self):
        with pytest.raises(ValueError, match="definite"):
            QuadraticCost(matrix=np.diag([1.0, -1.0]), linear=np.zeros(2))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            LogisticCost(feature=np.ones(2), label=0, reg=1.0, n_nodes=2)


class TestArrayConstructors:
    """The batched constructors reject what the per-node classes reject, with
    their messages, whichever row is bad."""

    @pytest.mark.parametrize("bad, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "quadratic matrix must be symmetric"),
        (np.diag([1.0, -1.0]), "quadratic matrix must be positive definite"),
        (np.diag([1.0, 0.0]), "quadratic matrix must be positive definite"),
    ])
    def test_quadratic_rejects_a_bad_matrix(self, bad, message):
        with pytest.raises(ValueError, match=exactly(message)):
            QuadraticCost(matrix=bad, linear=np.zeros(2))
        with pytest.raises(ValueError, match=exactly(message)):
            ObjectiveStack.quadratic([np.eye(2), bad, np.eye(2)], np.zeros((3, 2)))

    @pytest.mark.parametrize("matrices, linears", [
        (np.zeros((2, 2, 2)), np.zeros((2, 3))),
        (np.zeros((2, 3, 3)), np.zeros((3, 3))),
        (np.zeros((2, 2, 3)), np.zeros((2, 2))),
        (np.zeros((2, 2)), np.zeros(2)),
    ])
    def test_quadratic_dimension_mismatch(self, matrices, linears):
        with pytest.raises(ValueError, match=exactly("matrix/linear dimension mismatch")):
            QuadraticCost(matrix=np.eye(2), linear=np.zeros(3))
        with pytest.raises(ValueError, match=exactly("matrix/linear dimension mismatch")):
            ObjectiveStack.quadratic(matrices, linears)

    @pytest.mark.parametrize("label", [0.0, 0.5, 2.0, np.nan])
    def test_logistic_rejects_a_bad_label(self, label):
        with pytest.raises(ValueError, match=exactly("label must be -1 or +1")):
            LogisticCost(feature=np.ones(2), label=label, reg=1.0, n_nodes=2)
        samples = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, label], [5.0, 6.0, -1.0]])
        with pytest.raises(ValueError, match=exactly("label must be -1 or +1")):
            ObjectiveStack.logistic(samples, np.ones(3))

    @pytest.mark.parametrize("reg", [0.0, -1.0])
    def test_logistic_rejects_reg_at_most_zero(self, reg):
        message = exactly("need reg > 0 and n_nodes >= 1")
        with pytest.raises(ValueError, match=message):
            LogisticCost(feature=np.ones(2), label=1, reg=reg, n_nodes=2)
        with pytest.raises(ValueError, match=message):
            LogisticCost(feature=np.ones(2), label=1, reg=1.0, n_nodes=0)
        with pytest.raises(ValueError, match=message):
            ObjectiveStack.logistic(np.ones((3, 2)), [1.0, reg, 1.0])

    def test_logistic_dimension_mismatch(self):
        with pytest.raises(ValueError, match=exactly("samples/node_reg dimension mismatch")):
            ObjectiveStack.logistic(np.ones((3, 2)), np.ones(2))
        with pytest.raises(ValueError, match=exactly("samples/node_reg dimension mismatch")):
            ObjectiveStack.logistic(np.ones(3), np.ones(3))

    def test_empty_stack(self):
        for make in (lambda: ObjectiveStack.logistic(np.zeros((0, 3)), np.zeros(0)),
                     lambda: ObjectiveStack.quadratic(np.zeros((0, 2, 2)), np.zeros((0, 2)))):
            with pytest.raises(ValueError, match=exactly("empty stack")):
                make()

    def test_adapter_stacks_the_rows(self, rng):
        logistic, quadratic = random_logistic_stack(rng), random_quadratic_stack(rng)
        for stack, names in ((logistic, ("samples", "node_reg")),
                             (quadratic, ("matrices", "linears"))):
            again = stack_of(node_costs(stack))
            assert again.kind == stack.kind
            for name in names + ("node_h_min", "node_h_max"):
                assert getattr(again, name).tobytes() == getattr(stack, name).tobytes()


class TestDatasetIO:
    def test_roundtrip(self, tmp_path, rng):
        stack = random_logistic_stack(rng, n=3, d=4, reg=2.0)
        path = tmp_path / "data.csv"
        save_dataset(stack, path)
        rows = np.loadtxt(path, delimiter=",")
        assert rows.shape == (3, 4)  # label plus d-1 features per node
        for row, c in zip(rows, node_costs(stack)):
            assert row[0] == c.label
            assert np.array_equal(row[1:], c.feature)

    def test_quadratic_rejected(self, tmp_path):
        stack = stack_of((scalar_quadratic(0.0),))
        with pytest.raises(TypeError, match="logistic"):
            save_dataset(stack, tmp_path / "bad.csv")


class TestNumericalStability:
    def test_extreme_arguments_finite(self):
        cost = LogisticCost(feature=np.array([100.0]), label=1, reg=1.0, n_nodes=1)
        for x in (np.array([500.0, 0.0]), np.array([-500.0, 0.0])):
            assert np.isfinite(cost.value(x))
            assert np.isfinite(cost.grad(x)).all()

    def test_extreme_arguments_array_form(self):
        costs = tuple(LogisticCost(feature=np.array([s]), label=b, reg=1.0, n_nodes=2)
                      for s, b in ((100.0, 1), (100.0, -1)))
        stack = stack_of(costs)
        for x in (np.array([500.0, 0.0]), np.array([-500.0, 0.0])):
            rows = np.tile(x, (2, 1))
            grads = stack.node_grads(rows)
            assert np.isfinite(grads).all()
            assert np.allclose(grads, [c.grad(x) for c in costs], rtol=1e-14, atol=0)
            for i, c in enumerate(costs):
                assert np.array_equal(stack.node_grad(i, x), c.grad(x))
            assert np.array_equal(stack.node_grad_rows(rows), [c.grad(x) for c in costs])
            value = stack.aggregate_value(x)
            assert np.isfinite(value)
            assert value == pytest.approx(sum(c.value(x) for c in costs), rel=1e-14)


def random_quadratic_stack(rng, n=4, d=3):
    costs = []
    for _ in range(n):
        m = rng.standard_normal((d, d))
        costs.append(QuadraticCost(matrix=m @ m.T + np.eye(d), linear=rng.standard_normal(d)))
    return stack_of(tuple(costs))


class TestArrayForm:
    @pytest.fixture(params=["logistic", "quadratic"])
    def stack(self, request, rng):
        if request.param == "logistic":
            return random_logistic_stack(rng, n=6, d=4, reg=2.0)
        return random_quadratic_stack(rng, n=6, d=3)

    def test_node_grads_match_per_node(self, stack, rng):
        x = 3.0 * rng.standard_normal((stack.n_nodes, stack.dimension))
        oracle = np.array([c.grad(xi) for c, xi in zip(node_costs(stack), x)])
        assert np.allclose(stack.node_grads(x), oracle, rtol=1e-13, atol=1e-14)
        for i, xi in enumerate(x):
            assert np.allclose(stack.node_grad(i, xi), oracle[i], rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("scale", [0.1, 3.0, 30.0])
    def test_node_grad_rows_are_node_grad_bit_for_bit(self, stack, rng, scale):
        # node_grads' logistic rows differ from node_grad's in the last bits
        # on about a third of these rows
        if stack.kind == "logistic":
            stack = random_logistic_stack(rng, n=200, d=4, reg=2.0)
        x = scale * rng.standard_normal((stack.n_nodes, stack.dimension))
        rows = [stack.node_grad(i, xi) for i, xi in enumerate(x)]
        assert np.array_equal(stack.node_grad_rows(x), rows)

    def test_aggregate_values_match_per_node(self, stack, rng):
        x = 3.0 * rng.standard_normal((5, stack.dimension))
        costs = node_costs(stack)
        oracle = [sum(c.value(xi) for c in costs) for xi in x]
        assert np.allclose(stack.aggregate_values(x), oracle, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("wide", [False, True])
    def test_aggregate_value_of_a_row_ignores_the_batch(self, stack, rng, wide):
        # f(x*) in a trace row must reproduce f* bit for bit; the wide
        # stacks have enough nodes and features for pairwise summation
        if wide:
            stack = (random_logistic_stack(rng, n=12, d=16) if stack.kind == "logistic"
                     else random_quadratic_stack(rng, n=12, d=10))
        for m in (1, 2, 3, 7, 40):
            x = rng.standard_normal((m, stack.dimension))
            single = [stack.aggregate_value(xi) for xi in x]
            assert stack.aggregate_values(x).tolist() == single
            assert stack.aggregate_values(np.asfortranarray(x)).tolist() == single

    def test_aggregate_grad_matches_per_node(self, stack, rng):
        x = rng.standard_normal(stack.dimension)
        oracle = sum(c.grad(x) for c in node_costs(stack))
        assert np.allclose(stack.aggregate_grad(x), oracle, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("kind, n, d", [("quadratic", 200, 4), ("quadratic", 10, 15),
                                            ("quadratic", 6, 2), ("quadratic", 50, 32),
                                            ("logistic", 10, 15)])
    def test_one_block_is_that_block_repeated_bit_for_bit(self, kind, n, d, rng):
        stack = (generate_quadratic_stack(n, d) if kind == "quadratic"
                 else generate_logistic_data(n, d, reg=3.0, seed=11))
        for scale in (0.1, 3.0, 30.0):
            for x in scale * rng.standard_normal((200 // 3, d)):
                rows = stack.node_grads(np.broadcast_to(x, (n, d)))
                assert np.array_equal(stack.node_grads(x), rows)
                assert np.array_equal(stack.aggregate_grad(x), rows.sum(axis=0))

    def test_bounds_match_per_node(self, stack):
        assert stack.node_h_min.tolist() == [c.h_min for c in node_costs(stack)]
        assert stack.node_h_max.tolist() == [c.h_max for c in node_costs(stack)]

    def test_logistic_cost_caches_its_sample(self):
        cost = LogisticCost(feature=np.array([1.0, -2.0]), label=-1, reg=3.0, n_nodes=6)
        assert cost.stacked_sample.tolist() == [-1.0, 2.0, -1.0]
        assert (cost.h_min, cost.h_max) == (0.5, 0.5 + 0.25 * 6.0)
