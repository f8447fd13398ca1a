"""Octonion arithmetic and the seven 7x7 imaginary-unit operators.

The multiplication table is generated by

    e_i e_j = -delta_ij + eps_ijk e_k,

with eps totally antisymmetric and equal to +1 on the seven triples

    {123, 145, 176, 246, 257, 347, 365}.

The operators O_1..O_7 are the skew-symmetric 7x7 matrices obeying the
structure identity

    e_i e_j = sum_k e_k (O_i)_{kj} - delta_ij 1,

i.e. column j of O_i holds the imaginary part of e_i e_j.  They are stored
twice: once hard-coded entry by entry, once regenerated from the eps table;
``unit_matrices`` cross-checks the two on first use, guarding the 84 signed
entries against transcription slips.  (A common alternative convention
defines these operators through right multiplication, Im(phi e_i); with
this eps table that reading has the opposite orientation.  The structure
identity above -- left multiplication -- is what the hard-coded matrices
satisfy, and it is the convention used everywhere in this package.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import max_abs, unit_matrix

#: +1 triples of the structure constants eps_ijk (1-based indices).
EPS_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


@lru_cache(maxsize=1)
def eps_table() -> np.ndarray:
    """Totally antisymmetric eps_ijk as an int array of shape (7, 7, 7), 0-based."""
    eps = np.zeros((7, 7, 7), dtype=np.int64)
    for (i, j, k) in EPS_TRIPLES:
        for (a, b, c), sign in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            eps[a - 1, b - 1, c - 1] = sign
    return eps


@dataclass(frozen=True)
class Octonion:
    """An octonion re + sum_i im[i] e_i with real components."""

    re: float = 0.0
    im: tuple = (0.0,) * 7

    def __post_init__(self):
        if len(self.im) != 7:
            raise ValueError(f"imaginary part must have 7 components, got {len(self.im)}")
        if not (np.isfinite(self.re) and np.all(np.isfinite(self.im))):
            raise ValueError("octonion components must be finite")
        object.__setattr__(self, "im", tuple(float(c) for c in self.im))

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        """The imaginary unit e_i, 1 <= i <= 7."""
        if not 1 <= i <= 7:
            raise ValueError(f"imaginary unit index must be 1..7, got {i}")
        im = [0.0] * 7
        im[i - 1] = 1.0
        return cls(0.0, tuple(im))

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.re + other.re, tuple(a + b for a, b in zip(self.im, other.im)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.re - other.re, tuple(a - b for a, b in zip(self.im, other.im)))

    def scale(self, c: float) -> "Octonion":
        return Octonion(c * self.re, tuple(c * a for a in self.im))


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for (..., 8) octonion arrays, real part first: the table's bilinear extension."""
    re = x[..., 0] * y[..., 0] - np.einsum("...i,...i->...", x[..., 1:], y[..., 1:])
    im = (x[..., :1] * y[..., 1:] + y[..., :1] * x[..., 1:]
          + np.einsum("ijk,...i,...j->...k", eps_table(), x[..., 1:], y[..., 1:]))
    return np.concatenate([re[..., None], im], axis=-1)


def oct_mul(x: Octonion, y: Octonion) -> Octonion:
    """Bilinear extension of the unit table, with 1 acting as identity."""
    xy = _product(np.array([x.re, *x.im]), np.array([y.re, *y.im]))
    return Octonion(float(xy[0]), tuple(xy[1:]))


# The seven operators entry by entry, e.g. O_1 = e_32 - e_23 + e_54 - e_45
# - e_76 + e_67.  Entries are (i, j, sign) for sign * e_{ij}.
_UNIT_MATRIX_ENTRIES = (
    ((3, 2, 1), (2, 3, -1), (5, 4, 1), (4, 5, -1), (7, 6, -1), (6, 7, 1)),
    ((1, 3, 1), (3, 1, -1), (6, 4, 1), (4, 6, -1), (7, 5, 1), (5, 7, -1)),
    ((2, 1, 1), (1, 2, -1), (7, 4, 1), (4, 7, -1), (6, 5, -1), (5, 6, 1)),
    ((1, 5, 1), (2, 6, 1), (3, 7, 1), (5, 1, -1), (6, 2, -1), (7, 3, -1)),
    ((4, 1, 1), (7, 2, -1), (6, 3, 1), (1, 4, -1), (3, 6, -1), (2, 7, 1)),
    ((7, 1, 1), (4, 2, 1), (5, 3, -1), (2, 4, -1), (3, 5, 1), (1, 7, -1)),
    ((5, 2, 1), (6, 1, -1), (4, 3, 1), (3, 4, -1), (2, 5, -1), (1, 6, 1)),
)


def _hardcoded_unit_matrices() -> np.ndarray:
    out = np.zeros((7, 7, 7))
    for i, entries in enumerate(_UNIT_MATRIX_ENTRIES):
        for (a, b, sign) in entries:
            out[i] += sign * unit_matrix(a, b, 7)
    return out


def _rebuilt_unit_matrices() -> np.ndarray:
    # Structure identity: (O_i)_{kj} = eps_ijk.
    return np.transpose(eps_table(), (0, 2, 1)).astype(np.float64)


@lru_cache(maxsize=1)
def unit_matrices() -> np.ndarray:
    """Stack of the seven operators, shape (7, 7, 7); O_i = unit_matrices()[i-1].

    The hard-coded table and the eps-table rebuild must agree entry for
    entry, which is checked here once per process; RuntimeError names the
    first (operator, row, col) entries where they differ.
    """
    hard = _hardcoded_unit_matrices()
    rebuilt = _rebuilt_unit_matrices()
    if not np.array_equal(hard, rebuilt):
        diff = np.argwhere(hard != rebuilt)
        raise RuntimeError(
            "hard-coded imaginary-unit matrices disagree with the eps-table "
            f"rebuild at (operator, row, col) = {diff[:5] + 1}"
        )
    hard.setflags(write=False)
    return hard


def structure_residual() -> float:
    """Deviation between e_i e_j and sum_k e_k (O_i)_{kj} - delta_ij, all 49 pairs.

    One stacked ``_product``; exact integer arithmetic on both sides, so the
    expected value is 0.0.
    """
    units = np.eye(8)[1:]
    lhs = _product(units[:, None], units[None, :])  # [i, j] = e_i e_j
    rhs = np.concatenate([-np.eye(7)[..., None], np.swapaxes(unit_matrices(), 1, 2)], axis=-1)
    return max_abs(lhs - rhs)


def automorphism_residual(g: np.ndarray) -> float:
    """How far an orthogonal 7x7 matrix is from an octonion automorphism.

    g acts on imaginary units by g(e_i) = sum_j e_j g_{ji} and fixes 1; the
    residual is max_{i,j} |g(e_i) g(e_j) - g(e_i e_j)| over all components.
    Exactly the elements of the 14-dimensional exceptional group drive this
    to zero.  ``g`` may also be a (T, 7, 7) stack, giving one residual per
    matrix.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim not in (2, 3) or g.shape[-2:] != (7, 7):
        raise ValueError(f"expected a 7x7 matrix or a stack of them, got shape {g.shape}")
    stack = g if g.ndim == 3 else g[None]
    # Re g(e_i) g(e_j) = -<g e_i, g e_j> against -delta_ij: the orthogonality residual.
    ortho = np.abs(np.swapaxes(stack, 1, 2) @ stack - np.eye(7)).max(axis=(1, 2))
    if np.any(ortho > 1e-8):
        raise ValueError(f"matrix is not orthogonal (||g^T g - I|| = {ortho.max():.3e})")
    res = np.maximum(product_residual(stack), ortho)
    return float(res[0]) if g.ndim == 2 else res


def product_residual(stack: np.ndarray) -> np.ndarray:
    """Per g of an orthogonal (T, 7, 7) stack, max_{i,j} |Im(g(e_i) g(e_j) - g(e_i e_j))|."""
    eps = eps_table().astype(np.float64)
    # Imaginary part of g(e_i) g(e_j): columns of g multiply through the table,
    # sum_ab eps_abk g_ai g_bj, as two matrix products (first over a, then b).
    half = eps.reshape(7, 49).T @ stack  # [t, (b, k), i]
    prod_im = np.swapaxes(half.reshape(-1, 7, 49), 1, 2) @ stack  # [t, (k, i), j]
    # g applied to e_i e_j = -delta_ij + eps_ijc e_c.
    target_im = stack @ eps.reshape(49, 7).T  # [t, k, (i, j)]
    return np.abs(prod_im.reshape(target_im.shape) - target_im).max(axis=(1, 2))


_RESIDUAL_CHUNK = 256  # stacked matrices checked at once, a few hundred KiB per product


def conjugation_residual(g: np.ndarray) -> float:
    """Residual of the operator-transport identity g O_i g^{-1} = sum_k O_k g_{ki}.

    Only holds on the automorphism group, so g is rejected unless
    automorphism_residual(g) < 1e-8.  ``g`` may also be a (T, 7, 7) stack,
    giving one residual per matrix, in chunks; the stack is rejected if any is not.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 3 and len(g) > _RESIDUAL_CHUNK:
        return np.concatenate([conjugation_residual(g[start:start + _RESIDUAL_CHUNK])
                               for start in range(0, len(g), _RESIDUAL_CHUNK)])
    res = np.max(automorphism_residual(g))
    if res >= 1e-8:
        raise ValueError(f"conjugation identity requires an automorphism; residual {res:.3e}")
    o = unit_matrices()
    lhs = g[..., None, :, :] @ o @ np.swapaxes(g, -1, -2)[..., None, :, :]  # g O_i g^T
    rhs = (np.swapaxes(g, -1, -2) @ o.reshape(7, 49)).reshape(lhs.shape)  # sum_k O_k g_ki
    res = np.abs(lhs - rhs).max(axis=(-3, -2, -1))
    return float(res) if g.ndim == 2 else res
