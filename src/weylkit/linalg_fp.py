"""Linear algebra over F_p on packed integer rows.

A vector of F_p^n is one Python int: entry j sits in lane j, bits
[j*W, (j+1)*W), with W a whole number of bytes (see ``_lanes``).  A row
operation is one big-int multiply-add and one lane-wise reduction, a few
big-int operations where a numpy row costs a call per row and per entry
read.  ``rref``, ``rank``, ``nullspace`` and ``Subspace`` share one echelon
kernel, ``_insert``, and numpy sees a row only when it is packed or
unpacked.

``nonsingular`` eliminates a whole stack of small matrices at once, on the
same lanes held in uint64 words (``_stack``): a lane never crosses a word,
and one array operation per column serves every matrix of the stack.
``nonsingular_span`` builds its stack, every F_p-combination of a few
matrices, by linearity on those words.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .errors import UnsupportedError


@functools.lru_cache
def _lanes(p: int, n: int) -> tuple[int, int, int, int, int]:
    """(W, s, m, Q, lane) for rows of n entries over F_p.

    A row update x + (p - f)*b, with the lanes of x and b in [0, p) and
    1 <= f < p, leaves every lane at most (p - 1) + (p - 1)^2 = p^2 - p,
    and scaling a row by a unit at most (p - 1)^2.  Each lane x < p^2 is
    then reduced mod p by one Barrett step for all lanes at once:
    x - floor(x*m / 2^s)*p with m = ceil(2^s / p).

    *The reduction.*  Take 2^s >= p^3 and write m*p = 2^s + e with
    0 <= e < p, and x = q*p + r with 0 <= r < p.  Then
    x*m / 2^s = q + (r + x*e / 2^s) / p, and x*e < p^2 * p <= 2^s, so
    r + x*e / 2^s < r + 1 <= p: the floor is q, and x - q*p = r.

    *The lane width.*  W = s + bits(p).  From x <= p^2 - 1 and
    m <= (2^s + p - 1) / p, x*m < p*(2^s + p) = p*2^s + p^2 <= (p + 1)*2^s
    <= 2^(s + bits(p)), using p^2 <= 2^s and p < 2^bits(p).  So x*m fits in
    its lane: multiplying the packed row by m carries nothing from one lane
    into the next, shifting it right by s and masking each lane to its low
    W - s bits (the mask Q) gives every floor(x*m / 2^s) at once, and x - q*p
    borrows nothing since every lane of it is r >= 0.

    W is rounded up to 8, 16, 32 or 64 bits, or to a multiple of 64, and
    s = W - bits(p) keeps 2^s >= p^3, so that numpy packs and unpacks rows
    as arrays of unsigned words.  p = 2 needs no reduction: a lane holds 0
    or 1 and a row update is an XOR.
    """
    need = (p**3 - 1).bit_length() + p.bit_length()  # the least s, plus bits(p)
    W = next(w for w in (8, 16, 32, 64) if w >= need) if need <= 64 else 64 * -(-need // 64)
    s = W - p.bit_length()
    ones = ((1 << n * W) - 1) // ((1 << W) - 1)  # a 1 in each of the n lanes
    return W, s, -(-(1 << s) // p), ones * ((1 << W - s) - 1), (1 << W) - 1


@functools.lru_cache
def _words(p: int) -> tuple[np.dtype, int]:
    """The unsigned word type of a lane and the words per lane: a lane
    wider than 64 bits holds its entry (below 2^63) in its first word."""
    W = _lanes(p, 0)[0]
    return np.dtype(f"<u{min(W, 64) // 8}"), max(W // 64, 1)


def _pack(a: np.ndarray, p: int) -> list[int]:
    """The rows of a k x n array with entries in [0, p), packed."""
    k, n = a.shape
    dtype, per_lane = _words(p)
    words = np.zeros((k, n, per_lane), dtype=dtype)
    words[:, :, 0] = a
    data, size = words.tobytes(), n * per_lane * dtype.itemsize
    return [int.from_bytes(data[i * size : (i + 1) * size], "little") for i in range(k)]


def _unpack(rows: list[int], n: int, p: int) -> np.ndarray:
    """The packed rows as a len(rows) x n int64 array."""
    dtype, per_lane = _words(p)
    data = b"".join(x.to_bytes(n * per_lane * dtype.itemsize, "little") for x in rows)
    words = np.frombuffer(data, dtype=dtype).reshape(len(rows), n, per_lane)
    return words[:, :, 0].astype(np.int64)


def _residue(x: int, rows: list[int], pivots: list[int], p: int, lanes) -> int:
    """The packed row x reduced against the RREF basis (rows, pivots): zero
    exactly when x lies in their span.  A basis row is zero on every other
    pivot column, so one pass in any order clears each pivot column of x."""
    W, s, m, Q, lane = lanes
    for c, b in zip(pivots, rows):
        f = x >> c * W & lane
        if f:
            if p == 2:
                x ^= b
            else:
                x += (p - f) * b
                x -= (x * m >> s & Q) * p
    return x


def _insert(rows: list[int], pivots: list[int], new, p: int, lanes) -> None:
    """The echelon kernel: put each packed row of new into the RREF basis
    (rows, pivots ascending) in place.  A row with a non-zero residue is
    scaled to 1 at its first non-zero column c, c is cleared out of the
    other basis rows, and the row goes in at c's place in the order; the
    result is the canonical RREF of the span of the basis and new."""
    W, s, m, Q, lane = lanes
    for x in new:
        x = _residue(x, rows, pivots, p, lanes)
        if not x:
            continue
        c = ((x & -x).bit_length() - 1) // W
        f = x >> c * W & lane
        if f != 1:
            x *= pow(f, -1, p)
            x -= (x * m >> s & Q) * p
        for i, b in enumerate(rows):
            f = b >> c * W & lane
            if f:
                if p == 2:
                    rows[i] = b ^ x
                else:
                    b += (p - f) * x
                    rows[i] = b - (b * m >> s & Q) * p
        i = bisect.bisect(pivots, c)
        rows.insert(i, x)
        pivots.insert(i, c)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (rref, pivot columns)."""
    S = Subspace(mat, np.shape(mat)[1], p)
    return _unpack(S.rows, S.ambient_dim, p), S.pivots


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return Subspace(mat, mat.shape[1], p).dim


def _word_lanes(p: int) -> tuple[int, int, int, int, int]:
    """``_lanes`` for one uint64 word of a stack: its 64 / W lanes."""
    W = _lanes(p, 0)[0]
    if W > 64:
        raise UnsupportedError(f"a stacked lane must fit one 64-bit word, so p < 65536; p = {p} needs {W} bits")
    return _lanes(p, 64 // W)


def _stack(mats: np.ndarray, p: int) -> np.ndarray:
    """A stack of matrices with entries in [0, p) as uint64 words, shape
    (..., rows, words): lane j of a row is bits [j*W, (j+1)*W) of its words
    read as one little-endian int, which is ``_pack``'s row."""
    W = _word_lanes(p)[0]
    *lead, n = np.shape(mats)
    per = 64 // W
    lanes = np.zeros((*lead, -(-n // per) * per), dtype=f"<u{W // 8}")
    lanes[..., :n] = mats
    return lanes.view("<u8")


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Every lane of the words x, each below p^2, reduced mod p in place by
    ``_lanes``' Barrett step: no lane's product carries into the next, and
    a word's top lane keeps its product below 2^64."""
    W, s, m, Q, lane = _word_lanes(p)
    x -= (x * m >> s & Q) * p
    return x


@functools.lru_cache
def _inverses(p: int) -> np.ndarray:
    """v^-1 mod p at index v, and 0 at index 0, as uint64."""
    return np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.uint64)


def _span_stack(mats: np.ndarray, p: int) -> np.ndarray:
    """The stacked words of every combination sum_i c_i mats[i] of k
    matrices, c in F_p^k, at index sum_i c_i p^i (the base-p code of c).

    By linearity, one digit at a time: T <- [T + t mats[i] for t < p],
    each lane below (p - 1) + (p - 1)^2 < p^2 before one reduction (XOR at
    p = 2)."""
    P = _stack(np.asarray(mats, dtype=np.int64) % p, p)
    T = np.zeros((1, *P.shape[1:]), dtype=np.uint64)
    t = np.arange(p, dtype=np.uint64).reshape(-1, 1, 1, 1)
    for g in P:
        T = np.concatenate([T, T ^ g]) if p == 2 else _reduce((T + t * g).reshape(-1, *P.shape[1:]), p)
    return T


def _eliminate(words: np.ndarray, p: int) -> np.ndarray:
    """Whether each square matrix of the stacked words (see ``_stack``) is
    invertible over F_p, by one Gaussian elimination run on the whole stack.
    Column c of every matrix takes its first non-zero entry at or below row
    c as pivot, swapped up to row c, and a matrix with no such entry is
    singular.  The pivot row is scaled to 1 and each row x below becomes
    x + (p - f) * pivot, f its lane c: every lane stays below p^2 for one
    reduction.  Rows at or below c are zero left of column c, so the words
    before lane c's are left alone.  The stack is held as (row, word,
    matrix), so that every array operation runs along the matrices."""
    n, d = words.shape[:2]
    W, *_, lane = _word_lanes(p)
    m = np.ascontiguousarray(words.transpose(1, 2, 0))
    every, ok = np.arange(n), np.ones(n, dtype=bool)
    for c in range(d):
        k, shift = divmod(c, 64 // W)
        shift *= W
        rest = m[c:, k:]
        nonzero = rest[:, 0] >> shift & lane != 0
        ok &= nonzero.any(axis=0)
        piv = nonzero.argmax(axis=0)
        row = rest[piv, :, every].T
        rest[piv, :, every] = rest[0].T
        below = rest[1:]
        f = below[:, 0] >> shift & lane
        if p == 2:
            below ^= f[:, None] * row
        else:  # no pivot: the row scales to zero, and f is zero anyway
            row = _reduce(row * _inverses(p)[row[0] >> shift & lane], p)
            below += (p - f)[:, None] * row
            _reduce(below, p)
    return ok


def nonsingular(stack: np.ndarray, p: int) -> np.ndarray:
    """Whether each square matrix of the stack is invertible over F_p (see
    ``_eliminate``); p < 65536, so that a lane fits one word."""
    return _eliminate(_stack(np.asarray(stack, dtype=np.int64) % p, p), p)


def nonsingular_span(mats: np.ndarray, p: int) -> np.ndarray:
    """Whether each combination sum_i c_i mats[i] of k square matrices is
    invertible over F_p, for all p^k vectors c in the order of their base-p
    codes sum_i c_i p^i."""
    return _eliminate(_span_stack(mats, p), p)


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of the right nullspace of mat over F_p: for each free
    column f of the RREF, e_f minus the RREF's column f placed at the pivot
    columns."""
    mat = np.atleast_2d(mat)
    cols = mat.shape[1]
    S = Subspace(mat, cols, p)
    W, *_, lane = _lanes(p, cols)
    pivots, basis = set(S.pivots), []
    for f in range(cols):
        if f not in pivots:
            x = 1 << f * W
            for c, b in zip(S.pivots, S.rows):
                x |= (-(b >> f * W & lane) % p) << c * W
            basis.append(x)
    return _unpack(basis, cols, p)


class Subspace:
    """A subspace of F_p^dim in canonical reduced row echelon form, kept as
    packed rows with their pivot columns; ``basis`` is the same rows as a
    read-only array, built on first use."""

    def __init__(self, vectors, ambient_dim: int, p: int):
        self.p = p
        self.ambient_dim = ambient_dim
        self.rows: list[int] = []
        self.pivots: list[int] = []
        self._basis = None
        if len(vectors):
            _insert(self.rows, self.pivots, self._pack(vectors), p, _lanes(p, ambient_dim))

    def _pack(self, vectors) -> list[int]:
        return _pack(np.atleast_2d(np.asarray(vectors, dtype=np.int64)) % self.p, self.p)

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = _unpack(self.rows, self.ambient_dim, self.p)
            self._basis.flags.writeable = False
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduced(self, packed):
        """The residues of packed rows against the basis, lazily."""
        lanes = _lanes(self.p, self.ambient_dim)
        return (_residue(x, self.rows, self.pivots, self.p, lanes) for x in packed)

    def _residues(self, rows) -> np.ndarray:
        """Rows reduced against the basis: zero exactly for rows in the span."""
        return _unpack(list(self._reduced(self._pack(rows))), self.ambient_dim, self.p)

    def contains(self, v) -> bool:
        return not any(self._reduced(self._pack(v)))

    def contains_space(self, other: "Subspace") -> bool:
        return not any(self._reduced(other.rows))

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

    def _extended(self, packed) -> "Subspace":
        out = Subspace([], self.ambient_dim, self.p)
        out.rows, out.pivots = list(self.rows), list(self.pivots)
        _insert(out.rows, out.pivots, packed, self.p, _lanes(self.p, self.ambient_dim))
        return self if out.dim == self.dim else out

    def extend(self, rows) -> "Subspace":
        """The span of the basis and rows, in canonical RREF (the basis and
        pivots of Subspace(np.vstack([basis, rows]))): the rows go through
        the echelon kernel against a copy of the basis.  Returns self when
        the span does not grow."""
        return self._extended(self._pack(rows))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, *self.rows))

    def key(self):
        return tuple(self.rows)

    def add(self, other: "Subspace") -> "Subspace":
        return self._extended(other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        # c in the nullspace of [B1; B2]^T gives c[:r1] @ B1 = -c[r1:] @ B2,
        # and every vector of the intersection arises so
        ns = nullspace(np.vstack([self.basis, other.basis]).T, self.p)
        return Subspace(ns[:, : self.dim] @ self.basis % self.p, self.ambient_dim, self.p)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, p={self.p})"
