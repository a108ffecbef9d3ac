"""Pseudo-norms: symmetric, subadditive, point-separating functionals.

A pseudo-norm drops homogeneity.  The concrete spaces used throughout the
package (absolute value on scalars, quadrature L2 on torus grids) are
instances of :class:`PseudoNormedSpace`.

Two rules hold for every space.  Evaluation: :func:`eval_pseudo_norm` takes
a block array, (K+1,) scalars or (K+1, N) grid rows (the blocks of a dyadic
sequence), whose K+1 block norms come from one call of the space's rule;
one element is a one-row array.  Overflow: the value is
returned as computed, ``inf`` included; the dyadic norms, truncation sums
and envelopes built on it raise ``ValueError`` naming the order when they
leave floating-point range.  The axioms themselves are not checked at run
time; the tests probe them for both spaces on random elements.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "KindMismatchError",
    "PseudoNormedSpace",
    "eval_pseudo_norm",
    "scalar_abs_space",
]


class KindMismatchError(TypeError):
    """Input handed to a space that is not a block array of the space's kind."""


# ndim of a block array, by element kind: (K+1,) or (K+1, N)
_BLOCK_NDIM = {"scalar": 1, "grid_function": 2}


class PseudoNormedSpace:
    """A vector space together with a pseudo-norm evaluation rule.

    ``eval`` maps a block array, (K+1,) scalars or (K+1, N) grid rows, to
    the array of its K+1 row values; for a lawful space each value is
    nonnegative, symmetric under negation, subadditive, and vanishes exactly
    on the zero element.  Instances are immutable.
    """

    __slots__ = ("label", "eval", "element_kind")

    def __init__(self, label: str, eval: Callable, element_kind: str = "scalar"):
        if element_kind not in _BLOCK_NDIM:
            raise ValueError(f"unknown element kind {element_kind!r}")
        for name, value in zip(self.__slots__, (label, eval, element_kind)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PseudoNormedSpace is immutable")


def eval_pseudo_norm(space: PseudoNormedSpace, blocks: np.ndarray) -> np.ndarray:
    """The K+1 block norms of a block array, from one call of ``space.eval``.

    ``blocks`` is a block array, (K+1,) over a scalar space and (K+1, N)
    over a grid space.  Raises :class:`KindMismatchError` for
    anything else: a float, a grid function, or an array of the wrong ndim.
    The values are returned as computed, ``inf`` and ``nan`` included; the
    space's rule alone answers for its lawfulness.
    """
    ndim = _BLOCK_NDIM[space.element_kind]
    if not (isinstance(blocks, np.ndarray) and blocks.ndim == ndim):
        raise KindMismatchError(
            f"space {space.label!r} takes a {ndim}-D block array, "
            f"got {type(blocks).__name__}{getattr(blocks, 'shape', '')}"
        )
    return space.eval(blocks)


def scalar_abs_space() -> PseudoNormedSpace:
    """The real line with absolute value, the simplest lawful space."""
    return PseudoNormedSpace(label="abs", eval=abs, element_kind="scalar")
