"""Correctness references built apart from goldmankit.

Nothing in this module imports goldmankit.  The octonion operators come
from the seven epsilon triples, each Lie algebra is the null space of its
defining linear relations, and the Casimir tensor is assembled from the
inverse Gram matrix of that null-space basis, so no reference shares a
basis, a sign table or a contraction routine with the program under test.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

EPS_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def eps() -> np.ndarray:
    """Totally antisymmetric eps_ijk (0-based), +1 on the seven triples."""
    e = np.zeros((7, 7, 7))
    for i, j, k in EPS_TRIPLES:
        i, j, k = i - 1, j - 1, k - 1
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            e[a, b, c] = 1.0
            e[b, a, c] = -1.0
    return e


def octonion_operators() -> np.ndarray:
    """O_i with column j holding Im(e_i e_j): (O_i)_{kj} = eps_ijk."""
    return np.transpose(eps(), (0, 2, 1)).copy()


def symplectic_j(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def side(family: str, n: int) -> int:
    return {"sp": 2 * n, "g2": 7}.get(family, n)


def algebra_dim(family: str, n: int) -> int:
    return {
        "gl": n * n, "u": n * n, "sl": n * n - 1, "su": n * n - 1,
        "so": n * (n - 1) // 2, "sp": n * (2 * n + 1), "g2": 14,
    }[family]


def _relations(family: str, n: int, x: np.ndarray) -> list:
    """Values of the defining linear relations at X (all zero on the algebra)."""
    if family == "gl":
        return []
    if family == "sl":
        return [np.trace(x)]
    if family == "so":
        return [x + x.T]
    if family == "sp":
        j = symplectic_j(n)
        return [x.T @ j + j @ x]
    if family == "u":
        return [x + x.conj().T]
    if family == "su":
        return [x + x.conj().T, np.trace(x)]
    # g2: antisymmetric derivations D of the octonion product on imaginary
    # units, D(e_i) = sum_a e_a X_ai, so D(e_i e_j) = D(e_i) e_j + e_i D(e_j).
    e = eps()
    lhs = np.einsum("ijk,mk->ijm", e, x)
    rhs = np.einsum("ai,ajm->ijm", x, e) + np.einsum("bj,ibm->ijm", x, e)
    return [x + x.T, lhs - rhs]


def algebra_basis(family: str, n: int) -> np.ndarray:
    """Any basis of the algebra, as a stack (dim, d, d); complex for u/su."""
    d = side(family, n)
    complex_family = family in ("u", "su")
    units = []
    for k in range(d * d):
        m = np.zeros(d * d)
        m[k] = 1.0
        units.append(m.reshape(d, d))
    if complex_family:
        units = [u.astype(complex) for u in units] + [1j * u for u in units]
    columns = []
    for u in units:
        vals = _relations(family, n, u)
        flat = np.concatenate([np.ravel(v) for v in vals]) if vals else np.zeros(0)
        columns.append(np.concatenate([flat.real, flat.imag]) if complex_family else flat)
    if columns[0].size == 0:
        null = np.eye(len(units))
    else:
        null = scipy.linalg.null_space(np.array(columns).T)
    stack = np.array(units)
    basis = np.einsum("ua,uij->aij", null, stack)
    if basis.shape[0] != algebra_dim(family, n):
        raise AssertionError(
            f"{family}({n}) null space has dimension {basis.shape[0]}, "
            f"expected {algebra_dim(family, n)}"
        )
    return basis


def casimir(family: str, n: int) -> np.ndarray:
    """Gamma_ref = sum_ab (G^-1)_ab t_a (x) t_b with G_ab = 1/2 tr(t_a t_b).

    Returned as a real (d^2, d^2) matrix in Kronecker block order.
    """
    t = algebra_basis(family, n)
    dim, d, _ = t.shape
    gram = 0.5 * np.einsum("aij,bji->ab", t, t)
    if np.max(np.abs(gram.imag)) > 1e-12:
        raise AssertionError("trace form is not real on the algebra")
    ginv = np.linalg.inv(gram.real)
    flat = t.reshape(dim, d * d)
    g4 = (flat.T @ ginv @ flat).reshape(d, d, d, d)  # [i, j, k, l]
    gamma = np.transpose(g4, (0, 2, 1, 3)).reshape(d * d, d * d)
    if np.max(np.abs(gamma.imag)) > 1e-12:
        raise AssertionError("Casimir tensor is not real")
    return np.ascontiguousarray(gamma.real)


def swap(d: int) -> np.ndarray:
    """The tensor swap P with P (a (x) b) = b (x) a."""
    p = np.zeros((d * d, d * d))
    for i in range(d):
        for k in range(d):
            p[i * d + k, k * d + i] = 1.0
    return p


def reduced_bracket(a: np.ndarray, b: np.ndarray, gamma: np.ndarray):
    """1/2 tr_12[(A (x) B) Gamma]."""
    return 0.5 * np.sum(np.kron(a, b) * gamma.T)


def bracket_rhs(family: str, n: int, a: np.ndarray, b: np.ndarray):
    """The family's resolved-loop form of the reduced bracket."""
    ab = np.trace(a @ b)
    if family in ("gl", "u"):
        return ab
    if family in ("sl", "su"):
        return ab - np.trace(a) * np.trace(b) / n
    a_binv = np.trace(a @ np.linalg.inv(b))
    if family in ("sp", "so"):
        return 0.5 * (ab - a_binv)
    o = octonion_operators()
    oct_sum = sum(np.trace(a @ o[i]) * np.trace(b @ o[i]) for i in range(7))
    return 0.5 * (ab - a_binv + oct_sum / 3.0)


def membership_residual(family: str, n: int, g: np.ndarray) -> float:
    """Distance of g from the family's group, by its defining equations."""
    d = g.shape[0]
    eye = np.eye(d)
    if family == "gl":
        return 0.0 if abs(np.linalg.det(g)) > 1e-8 else math.inf
    if family == "sl":
        return abs(np.linalg.det(g) - 1.0)
    if family in ("u", "su"):
        res = np.max(np.abs(g.conj().T @ g - eye))
        return max(res, abs(np.linalg.det(g) - 1.0)) if family == "su" else res
    if family == "sp":
        j = symplectic_j(n)
        return np.max(np.abs(g.T @ j @ g - j))
    ortho = max(np.max(np.abs(g.T @ g - eye)), abs(np.linalg.det(g) - 1.0))
    if family == "so":
        return ortho
    # g2: g(e_i) g(e_j) = g(e_i e_j) on imaginary parts.
    e = eps()
    prod = np.einsum("abk,ai,bj->ijk", e, g, g)
    image = np.einsum("ijc,kc->ijk", e, g)
    return max(ortho, np.max(np.abs(prod - image)))


def random_g2(rng: np.random.Generator, count: int) -> list:
    """Group elements exp(X) for random X in the null-space g2 basis."""
    t = algebra_basis("g2", 1)
    return [
        scipy.linalg.expm(np.einsum("a,aij->ij", rng.uniform(-1, 1, len(t)), t))
        for _ in range(count)
    ]


def spec_count(n1: int, s: int, n2: int, t: int) -> int:
    """Closed form t^n1 * C(t,2)^s * t^(2 n2 - 2 s) for the (K, Q) choices."""
    return t ** n1 * math.comb(t, 2) ** s * t ** (2 * n2 - 2 * s)


def word_table(m: np.ndarray, length: int) -> np.ndarray:
    """tr(M O_i1 ... O_ik) for every letter tuple, as one written-out einsum."""
    o = octonion_operators()
    if length == 0:
        return np.trace(m)
    # M[r0,r1] O[a1,r1,r2] ... O[aL,rL,r0], summed over the r's.
    letters = "abcdefgh"[:length]
    rows = "stuvwxyz"[:length + 1]
    terms = [rows[0] + rows[1]] + [
        letter + rows[k + 1] + rows[(k + 2) % (length + 1)]
        for k, letter in enumerate(letters)
    ]
    spec = ",".join(terms) + "->" + letters
    return np.einsum(spec, m, *([o] * length), optimize=True)


def loop_matrix(term, loops: dict) -> np.ndarray:
    """Matrix of a loop term: a base loop, a.b -> M_a M_b, a.~b -> M_a M_b^-1."""
    if not hasattr(term, "left"):
        return loops[term.name]
    right = loop_matrix(term.right, loops)
    if term.invert_right:
        right = np.linalg.inv(right)
    return loop_matrix(term.left, loops) @ right


def monomial_value(m, loops: dict, syms: dict) -> float:
    """Contract one symbolic monomial from its traces and coefficient atoms.

    Reads only the monomial's public fields; every index is summed 1..7.
    """
    value = float(m.coeff)
    labels: dict = {}
    operands = []
    for atom in m.traces:
        table = word_table(loop_matrix(atom.loop, loops), len(atom.word))
        if not atom.word:
            value *= float(table)
            continue
        operands += [table, [labels.setdefault(i, len(labels)) for i in atom.word]]
    for c in m.coeffs:
        operands += [syms[c.sym], [labels.setdefault(c.row, len(labels)),
                                   labels.setdefault(c.col, len(labels))]]
    if not operands:
        return value
    return value * float(np.einsum(*operands, [], optimize=True))


def pairing_class(m) -> tuple:
    """Isomorphism class of a product of single-letter traces on loops a and b.

    Each index joins two atoms; the class is the number of a-a, b-b and a-b
    joins, which is a complete invariant for such products.
    """
    ends: dict = {}
    for atom in m.traces:
        if len(atom.word) != 1:
            raise ValueError(f"expected single-letter traces, got {atom}")
        ends.setdefault(atom.word[0], []).append(str(atom.loop))
    if m.coeffs or any(len(v) != 2 for v in ends.values()):
        raise ValueError("expected every index to join exactly two traces")
    kinds = [tuple(sorted(v)) for v in ends.values()]
    return (kinds.count(("a", "a")), kinds.count(("b", "b")), kinds.count(("a", "b")))


def hand_contractions() -> dict:
    """A few exotic observables written out index by index from their
    definitions, keyed by (r, n1, s, n2, t, K, Q).  Arguments are the
    instance's monodromies (simple slots, then word rows), alphas and betas."""
    o = octonion_operators()

    def one_pair(m, al, be):
        # sum_l tr(M1 O_l) tr(M2 O_l)
        return np.einsum("xy,lyx,uv,lvu->", m[0], o, m[1], o)

    def alpha_pair(m, al, be):
        # sum_{a,b} tr(M1 O_a) tr(M2 O_b) alpha[a, b]
        return np.einsum("xy,ayx,uv,bvu,ab->", m[0], o, m[1], o, al[0], optimize=True)

    def two_words(m, al, be):
        # sum tr(M1 O_a) tr(M2 O_b) tr(M3 O_a O_c) tr(M4 O_b O_d) beta[c, d]
        return np.einsum("xy,ayx,uv,bvu,pq,aqr,crp,st,btw,dws,cd->",
                         m[0], o, m[1], o, m[2], o, o, m[3], o, o, be[0], optimize=True)

    def long_word(m, al, be):
        # sum tr(M O_a O_d O_b O_e O_c O_f) beta1[a, d] beta2[b, e] beta3[c, f]
        return np.einsum("pq,aqr,drs,bst,etu,cuv,fvp,ad,be,cf->",
                         m[0], o, o, o, o, o, o, be[0], be[1], be[2], optimize=True)

    return {
        (1, 1, 0, 0, 1, ((1,),), ((),)): one_pair,
        (0, 1, 0, 0, 1, ((1,),), ((),)): alpha_pair,
        (2, 2, 0, 1, 2, ((1, 0), (0, 1)), ((1, 0), (0, 1))): two_words,
        (0, 0, 0, 3, 1, ((),), ((1, 1, 1, 1, 1, 1),)): long_word,
    }
