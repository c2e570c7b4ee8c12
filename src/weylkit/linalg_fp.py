"""Dense linear algebra over F_p built on numpy integer arrays."""

from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (rref, pivot columns)."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = None
        for rr in range(r, rows):
            if m[rr, c] % p:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref(mat, p)[1])


def nonsingular(stack: np.ndarray, p: int) -> np.ndarray:
    """Whether each square matrix of the stack is invertible over F_p, by one
    Gaussian elimination run on the whole stack: column c of every matrix
    takes its first non-zero entry at or below row c as pivot, swapped up to
    row c, and a matrix with no such entry is singular."""
    m = np.array(stack, dtype=np.int64) % p
    n, d = m.shape[:2]
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    every, ok = np.arange(n), np.ones(n, dtype=bool)
    for c in range(d):  # only the block right of and below (c, c) is read later
        nonzero = m[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        piv = c + nonzero.argmax(axis=1)
        row = m[every, piv, c:]
        m[every, piv, c:] = m[:, c, c:].copy()
        row = row[:, 1:] * inverse[row[:, 0]][:, None] % p  # zero where no pivot
        m[:, c + 1 :, c + 1 :] = (m[:, c + 1 :, c + 1 :] - m[:, c + 1 :, c, None] * row[:, None]) % p
    return ok


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of the right nullspace of mat over F_p."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64)) % p
    cols = mat.shape[1]
    r, pivots = rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[:, free].T % p
    return basis


class Subspace:
    """A subspace of F_p^dim in canonical reduced row echelon form."""

    def __init__(self, vectors, ambient_dim: int, p: int):
        self.p = p
        self.ambient_dim = ambient_dim
        arr = np.atleast_2d(np.array(list(vectors), dtype=np.int64)) if len(vectors) else np.zeros((0, ambient_dim), dtype=np.int64)
        self.basis, self.pivots = rref(arr, p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _residues(self, rows: np.ndarray) -> np.ndarray:
        """Rows reduced against the basis: zero exactly for rows in the span
        (the basis is RREF, so rows[:, pivots] are the coordinates)."""
        rows = np.atleast_2d(np.array(rows, dtype=np.int64)) % self.p
        return (rows - rows[:, self.pivots] @ self.basis) % self.p

    def contains(self, v) -> bool:
        return not np.any(self._residues(v))

    def contains_space(self, other: "Subspace") -> bool:
        return not np.any(self._residues(other.basis))

    def closure(self, ops) -> "Subspace":
        """The smallest subspace containing this one and stable under each
        matrix in the stack ops (acting on column vectors).

        Precondition: ops[i] is the action of the basis element e_i of a
        unital algebra A (the matrices compose like the basis and the unit
        acts as the identity).  Then the images e_i s of the basis vectors s
        span A*S, which contains S and is stable under every e_j, so one
        pass, with no fixed-point loop, gives the closure."""
        ops = np.asarray(ops, dtype=np.int64)
        return self.extend((ops @ self.basis.T).transpose(0, 2, 1).reshape(-1, self.ambient_dim))

    def extend(self, rows) -> "Subspace":
        """The span of the basis and rows, in canonical RREF (the basis and
        pivots of Subspace(np.vstack([basis, rows]))).  Only the residues of
        rows go through rref; they vanish on the old pivot columns, so
        clearing the new pivot columns out of the old basis and merging the
        rows by pivot gives the echelon form of the whole."""
        new = self._residues(rows)
        new = new[np.any(new, axis=1)]
        if not new.size:
            return self
        E, piv = rref(new, self.p)
        B = (self.basis - self.basis[:, piv] @ E) % self.p
        pivots = self.pivots + piv
        order = np.argsort(pivots)
        out = Subspace([], self.ambient_dim, self.p)
        out.basis, out.pivots = np.vstack([B, E])[order], [pivots[i] for i in order]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def key(self):
        return self.basis.tobytes()

    def add(self, other: "Subspace") -> "Subspace":
        return self.extend(other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        # c in the nullspace of [B1; B2]^T gives c[:r1] @ B1 = -c[r1:] @ B2,
        # and every vector of the intersection arises so
        ns = nullspace(np.vstack([self.basis, other.basis]).T, self.p)
        return Subspace(ns[:, : self.dim] @ self.basis % self.p, self.ambient_dim, self.p)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, p={self.p})"
