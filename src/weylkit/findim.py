"""Structure-constant algebras over F_p and a small zoo of constructors."""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidFormError, TooLargeError
from .linalg_fp import Subspace

ENUM_BUDGET = 1 << 12  # p^d ceiling of every element or vector enumeration
CHECK_BLOCK = 1 << 20  # array elements per block of check_representation
TABLE_BUDGET = 1 << 18  # k^3 ceiling of the table of F_p[x]/(x^k) and F_p[C_k] (k <= 64)


def check_representation(ops, table, unit, p: int, product_error: str, unit_error: str):
    """Check exactly that the matrices ops[i], one per basis element e_i of an
    algebra with structure constants table, compose like the basis,
    ops[i] @ ops[j] == sum_k table[i, j, k] ops[k], and that the unit acts as
    the identity; raise InvalidFormError(product_error or unit_error) if not.

    i runs in blocks of at most CHECK_BLOCK array elements (at least one i
    per block), so d basis elements acting on F_p^m take O(d m^2) memory per
    block instead of O(d^2 m^2)."""
    d, m = ops.shape[:2]
    step = max(1, CHECK_BLOCK // max(1, d * m * m))
    for start in range(0, d, step):
        block = slice(start, start + step)
        lhs = ops[block, None] @ ops[None, :] % p
        if np.any(lhs != np.einsum("ijk,kab->ijab", table[block], ops) % p):
            raise InvalidFormError(product_error)
    if np.any(np.einsum("i,iab->ab", unit, ops) % p != np.eye(m, dtype=np.int64)):
        raise InvalidFormError(unit_error)


class FinDimAlgebra:
    """A finite-dimensional associative unital algebra given by structure
    constants: e_i e_j = sum_k table[i, j, k] e_k over F_p."""

    def __init__(self, table, unit, p: int, name: str = ""):
        self.p = p
        self.table = np.array(table, dtype=np.int64) % p
        self.dim = self.table.shape[0]
        if self.table.shape != (self.dim, self.dim, self.dim):
            raise InvalidFormError("structure constant tensor must be d x d x d")
        self.unit = np.array(unit, dtype=np.int64) % p
        self.name = name
        self._radical = None  # filled in by localring.jacobson_radical
        self._top = None  # filled in by localring.semisimple_quotient
        self._idempotents = None  # filled in by localring.primitive_central_idempotents
        # on the left-regular stack the product law is associativity,
        # (e_i e_j) e_l = e_i (e_j e_l), and the unit law is 1 x = x
        check_representation(
            self.mult_ops("left"), self.table, self.unit, p,
            "structure constants are not associative", "unit laws fail",
        )
        if np.any(self.right_mult(self.unit) != np.eye(self.dim, dtype=np.int64)):
            raise InvalidFormError("unit laws fail")

    def mul(self, u, v) -> np.ndarray:
        return np.einsum("i,j,ijk->k", u % self.p, v % self.p, self.table) % self.p

    def left_mult(self, v) -> np.ndarray:
        """Matrix L with L @ e_j = v * e_j (columns indexed by j)."""
        return np.einsum("i,ijk->kj", v % self.p, self.table) % self.p

    def right_mult(self, v) -> np.ndarray:
        return np.einsum("j,ijk->ki", v % self.p, self.table) % self.p

    def elements(self):
        if self.p**self.dim > ENUM_BUDGET:
            raise TooLargeError(
                f"p^d = {self.p}**{self.dim} exceeds the enumeration budget"
            )
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield np.array(coeffs, dtype=np.int64)

    def subspace_product(self, U: Subspace, V: Subspace) -> Subspace:
        """U*V, the span of the products u v of the basis vectors, as two
        exact int64 products: row (u, j) of the first is u e_j, and the
        second combines those rows by the v.  Entries are in [0, p) before
        each, so every partial sum is below d p^2."""
        d, p = self.dim, self.p
        ue = U.basis @ self.table.reshape(d, -1) % p  # row u: u e_j for each j
        prods = V.basis @ ue.reshape(-1, d, d) % p  # block u, row v: u v
        return Subspace(prods.reshape(-1, d), d, p)

    def powers(self, I: Subspace):
        """Yield I, I^2, ..., stopping after the first power P with P*I = P
        (every later power equals it) or after dim + 2 powers, since a
        subspace that is not an ideal need not have a chain that settles."""
        power = I
        for _ in range(self.dim + 2):
            yield power
            nxt = self.subspace_product(power, I)
            if nxt == power:
                return
            power = nxt

    def mult_ops(self, side: str = "left") -> np.ndarray:
        """The stack of matrices of v |-> e_i v (side "left") or v |-> v e_i,
        one per basis element e_i, acting on column vectors."""
        return np.transpose(self.table, (0, 2, 1) if side == "left" else (1, 2, 0))

    def two_sided_ideal(self, vectors) -> Subspace:
        """A*V*A for V = span(vectors): the left closure A*V, then its right
        closure, which is stable under left multiplication too."""
        left = Subspace(vectors, self.dim, self.p).closure(self.mult_ops("left"))
        return left.closure(self.mult_ops("right"))

    def is_nilpotent_subspace(self, I: Subspace) -> bool:
        return any(P.is_zero() for P in self.powers(I))

    def opposite(self) -> "FinDimAlgebra":
        return FinDimAlgebra(
            np.transpose(self.table, (1, 0, 2)),
            self.unit,
            self.p,
            name=f"{self.name}^op" if self.name else "op",
        )

    def quotient(self, I: Subspace):
        """Quotient algebra A/I for a two-sided ideal; returns
        (algebra, projection matrix, lift matrix).

        A/I has the basis e_c for the non-pivot columns c of I's RREF: each
        e_j minus its residue against I lies in I, and the residues vanish on
        the pivot columns."""
        p = self.p
        comp = [c for c in range(self.dim) if c not in I.pivots]
        lift = np.eye(self.dim, dtype=np.int64)[comp]  # q x d rows
        proj = I._residues(np.eye(self.dim, dtype=np.int64))[:, comp].T  # q x d
        table = self.table[np.ix_(comp, comp)] @ proj.T % p
        quo = FinDimAlgebra(table, proj @ self.unit % p, p, name=f"{self.name}/I")
        return quo, proj, lift

    def __repr__(self):
        return f"FinDimAlgebra({self.name or 'dim %d' % self.dim}, p={self.p})"


# -- constructors ------------------------------------------------------------


def full_matrix_algebra(n: int, p: int) -> FinDimAlgebra:
    """M_n(F_p) on the basis e_{rc} in row-major order."""
    d = n * n
    table = np.zeros((d, d, d), dtype=np.int64)
    idx = lambda r, c: r * n + c
    for r, c, rr, cc in itertools.product(range(n), repeat=4):
        if c == rr:
            table[idx(r, c), idx(rr, cc), idx(r, cc)] = 1
    unit = np.zeros(d, dtype=np.int64)
    for r in range(n):
        unit[idx(r, r)] = 1
    return FinDimAlgebra(table, unit, p, name=f"M_{n}(F_{p})")


def upper_triangular_algebra(n: int, p: int) -> FinDimAlgebra:
    """T_n(F_p): upper triangular n x n matrices; basis e_{rc}, r <= c."""
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    d = len(pairs)
    idx = {rc: k for k, rc in enumerate(pairs)}
    table = np.zeros((d, d, d), dtype=np.int64)
    for (r, c), (rr, cc) in itertools.product(pairs, repeat=2):
        if c == rr:
            table[idx[(r, c)], idx[(rr, cc)], idx[(r, cc)]] = 1
    unit = np.zeros(d, dtype=np.int64)
    for r in range(n):
        unit[idx[(r, r)]] = 1
    return FinDimAlgebra(table, unit, p, name=f"T_{n}(F_{p})")


def _zero_table(k: int) -> np.ndarray:
    """A k x k x k table of zeros, or TooLargeError, before anything is
    allocated, when its k^3 entries exceed TABLE_BUDGET."""
    if k**3 > TABLE_BUDGET:
        raise TooLargeError(f"k^3 = {k}**3 table entries exceed the table budget TABLE_BUDGET = {TABLE_BUDGET}")
    return np.zeros((k, k, k), dtype=np.int64)


def truncated_polynomial_algebra(p: int, k: int) -> FinDimAlgebra:
    """F_p[x]/(x^k) on the basis 1, x, ..., x^{k-1}."""
    table = _zero_table(k)
    for a, b in itertools.product(range(k), repeat=2):
        if a + b < k:
            table[a, b, a + b] = 1
    unit = np.zeros(k, dtype=np.int64)
    unit[0] = 1
    return FinDimAlgebra(table, unit, p, name=f"F_{p}[x]/(x^{k})")


def product_algebra(A: FinDimAlgebra, B: FinDimAlgebra) -> FinDimAlgebra:
    if A.p != B.p:
        raise InvalidFormError("mismatched moduli")
    d = A.dim + B.dim
    table = np.zeros((d, d, d), dtype=np.int64)
    table[: A.dim, : A.dim, : A.dim] = A.table
    table[A.dim :, A.dim :, A.dim :] = B.table
    unit = np.concatenate([A.unit, B.unit])
    return FinDimAlgebra(table, unit, A.p, name=f"{A.name} x {B.name}")


def cyclic_group_algebra(p: int, order: int) -> FinDimAlgebra:
    """F_p[Z/order] on the group element basis."""
    table = _zero_table(order)
    for a, b in itertools.product(range(order), repeat=2):
        table[a, b, (a + b) % order] = 1
    unit = np.zeros(order, dtype=np.int64)
    unit[0] = 1
    return FinDimAlgebra(table, unit, p, name=f"F_{p}[C_{order}]")
