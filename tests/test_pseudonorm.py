import math

import numpy as np
import pytest

from besovflow.flows import Trajectory
from besovflow.littlewood_paley import GridFunction, grid_l2_norm, grid_l2_space
from besovflow.pseudonorm import (
    KindMismatchError,
    PseudoNormedSpace,
    eval_pseudo_norm,
    scalar_abs_space,
)


def axiom_probe(space, sampler, trials, rng):
    """The axiom violations of ``space`` over ``trials`` random pairs (x, y).

    ``sampler(rng)`` returns a random element, a float for a scalar space
    or a 1-D row for a grid space.  Each trial evaluates x, -x, y and x + y
    in one :func:`eval_pseudo_norm` call on their stack, and checks

      * eval(x) and eval(y) are finite and >= 0,
      * |eval(-x) - eval(x)| <= 1e-12 (1 + eval(x)),
      * eval(x + y) <= eval(x) + eval(y) + 1e-12 (eval(x) + eval(y)).

    A non-finite eval(-x) or eval(x + y) breaks its law.
    """
    violations = []
    for trial in range(trials):
        x = sampler(rng)
        y = sampler(rng)
        nx, n_negx, ny, nxy = (
            float(v) for v in eval_pseudo_norm(space, np.stack([x, -x, y, x + y]))
        )
        if not (math.isfinite(nx) and math.isfinite(ny)):
            violations.append({"trial": trial, "law": "finite", "value": (nx, ny)})
            continue
        if nx < 0.0 or ny < 0.0:
            violations.append({"trial": trial, "law": "nonnegative", "value": min(nx, ny)})
        if not abs(n_negx - nx) <= 1e-12 * (1.0 + abs(nx)):
            violations.append({"trial": trial, "law": "symmetry", "value": (nx, n_negx)})
        if not nxy <= nx + ny + 1e-12 * (nx + ny):
            violations.append({"trial": trial, "law": "subadditivity", "value": (nxy, nx + ny)})
    return violations


def counting_space(label, rule, element_kind="scalar"):
    """A space whose rule records the shape of every array it is called on."""
    calls = []

    def counted(blocks):
        calls.append(blocks.shape)
        return rule(blocks)

    return PseudoNormedSpace(label, eval=counted, element_kind=element_kind), calls


class TestEvalPseudoNorm:
    """One element is a one-row block array."""

    def test_zero_element(self):
        assert np.array_equal(eval_pseudo_norm(scalar_abs_space(), np.array([0.0])), [0.0])

    def test_symmetry_of_abs(self):
        assert np.array_equal(eval_pseudo_norm(scalar_abs_space(), np.array([-3.0])), [3.0])

    def test_grid_l2_of_constant(self):
        # quadrature-weighted Euclidean norm: sqrt(dx * sum u^2) with
        # dx = 2*pi/8 and eight unit samples
        u = np.ones((1, 8))
        oracle = math.sqrt((2.0 * math.pi / 8.0) * sum(v * v for v in u[0]))
        assert oracle == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-15)
        (norm,) = eval_pseudo_norm(grid_l2_space(8), u)
        assert norm == pytest.approx(oracle, rel=1e-15)

    def test_kind_mismatch(self):
        # anything but a block array of the space's kind: a float, a grid
        # function, a trajectory
        trajectory = Trajectory(np.linspace(0.0, 1.0, 3), np.ones((3, 5)))
        for space in (scalar_abs_space(), grid_l2_space(8)):
            for element in (1.0, GridFunction(np.ones(8)), trajectory):
                with pytest.raises(KindMismatchError):
                    eval_pseudo_norm(space, element)

    def test_overflow_outcome(self):
        # the value is returned as computed; callers reject it
        space = PseudoNormedSpace(
            "blowup", eval=lambda x: np.full(x.shape[0], math.inf), element_kind="scalar"
        )
        assert np.array_equal(eval_pseudo_norm(space, np.array([1.0])), [math.inf])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PseudoNormedSpace("trajectories", eval=abs, element_kind="time_trajectory")


class TestBlockArrays:
    """A sequence's block array: one call of the space's rule for all rows."""

    def test_scalar_blocks(self):
        norms = eval_pseudo_norm(scalar_abs_space(), np.array([-3.0, 0.0, 2.5]))
        assert np.array_equal(norms, [3.0, 0.0, 2.5])

    @pytest.mark.parametrize(
        "space, blocks",
        [
            (scalar_abs_space(), np.zeros((3, 8))),
            (scalar_abs_space(), np.array(1.0)),
            (grid_l2_space(8), np.zeros(8)),
            (grid_l2_space(8), np.zeros((2, 3, 8))),
        ],
        ids=["scalar-2d", "scalar-0d", "grid-1d", "grid-3d"],
    )
    def test_wrong_ndim_rejected(self, space, blocks):
        with pytest.raises(KindMismatchError):
            eval_pseudo_norm(space, blocks)

    @pytest.mark.parametrize("grid_size", [1 << e for e in range(3, 15)])
    def test_grid_rows_bit_equal_to_per_row_calls(self, rng, grid_size):
        blocks = rng.normal(size=(15, grid_size)) * np.exp2(rng.uniform(-30, 30, (15, 1)))
        norms = eval_pseudo_norm(grid_l2_space(grid_size), blocks)
        per_row = [grid_l2_norm(GridFunction(row)) for row in blocks]
        assert norms.shape == (15,)
        assert np.array_equal(norms, per_row)


class TestAxiomProbe:
    """Each trial evaluates x, -x, y and x + y in one call of the space's rule."""

    def test_scalar_abs_clean(self, rng):
        space, calls = counting_space("abs", np.abs)
        assert axiom_probe(space, lambda r: float(r.normal()), 100, rng) == []
        assert calls == [(4,)] * 100

    def test_grid_l2_clean(self, rng):
        space, calls = counting_space("L2", grid_l2_norm, "grid_function")
        assert axiom_probe(space, lambda r: r.normal(size=16), 100, rng) == []
        assert calls == [(4, 16)] * 100

    def test_broken_eval_flagged(self, rng):
        broken, calls = counting_space("signed-identity", lambda x: x)
        violations = axiom_probe(broken, lambda r: float(r.normal()), 10, rng)
        assert {"symmetry", "nonnegative"} <= {v["law"] for v in violations}
        assert len(calls) == 10

    def test_non_finite_values_flagged(self, rng):
        blowup, calls = counting_space("blowup", lambda x: np.full(x.shape[0], math.inf))
        violations = axiom_probe(blowup, lambda r: float(r.normal()), 3, rng)
        assert [v["law"] for v in violations] == ["finite"] * 3
        assert len(calls) == 3
        # nan on negatives: a finite eval(x) but no symmetric partner
        one_sided, calls = counting_space(
            "one-sided", lambda x: np.where(x >= 0, x, math.nan)
        )
        violations = axiom_probe(one_sided, lambda r: float(abs(r.normal())), 3, rng)
        assert {v["law"] for v in violations} == {"symmetry"}
        assert len(calls) == 3


class TestSubadditivityEnvelope:
    def test_triangle_both_sides(self, rng):
        # |N(x+y) - N(x) - N(y)| <= N(x) + N(y) and subadditivity with slack
        space = grid_l2_space(32)
        for _ in range(200):
            x = rng.normal(size=32)
            y = rng.normal(size=32)
            nx, ny, nxy = eval_pseudo_norm(space, np.stack([x, y, x + y]))
            assert abs(nxy - nx - ny) <= nx + ny + 1e-12
            assert nxy <= nx + ny + 1e-12 * (nx + ny)
