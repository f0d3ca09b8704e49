"""Chain complexes and exact homology over Z, Q, and prime fields.

Assembly is integral.  Chain complexes, chain maps, homotopies and double
complexes carry integer matrices built from face tables (``_table_matrix``)
and no ring.  A ring is read only where an answer is read:
``ChainComplex.boundary_rank``, ``homology`` and ``graded_homology`` take one
(default Z), and every ring reads its ranks off the same integer invariant
factors of each boundary.  Over Z the answers are finitely presented abelian
groups, over a field dimensions.  The spectral sequence (``specseq``) reads
its field the same way.

The invariant factors come from reduce-then-factor.  Once per complex, free
unit pairs (a generator and a face hit by +-1, one of them with no other live
incidence) are removed, which splits off ``Z --1--> Z`` summands without any
arithmetic; then, to factor d_k, the residual boundaries of degrees 1..k
are put in Smith normal form, each once and each without the previous
degree's unit-prefix pivot rows (the "compression" of Bauer, Kerber and
Reininghaus, Clear and Compress, 2014, made exact over Z).  Coordinates
(``homology_coordinates``) need transforms in the original basis, so they
factor the unreduced d_k and the relations among its cycles: two transform
forms per degree.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .snf import SparseIntMatrix, invariant_factors, smith_normal_form
from .sset import (
    BiSemiSimplicialSet,
    Enumeration,
    ExtraDegeneracy,
    PrismHomotopy,
    SemiSimplicialSet,
    SimplicialSet,
    SSetMap,
    ValidationReport,
    _restriction_tables,
    _staged,
    levelwise_product,
    validate_sset,
)


# -- rings -------------------------------------------------------------------


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017); the bound is
# itself a strong pseudoprime to all 13.  The first 12 alone are fooled by
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_MODULUS."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        # b^(2^k d) = -1 mod n makes every prime factor 1 mod 2^(k+1), so k <= s - 1
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_ring(s: str) -> str:
    s = s.strip().upper()
    if s in ("Z", "Q"):
        return s
    if s.startswith("F"):
        try:
            p = int(s[1:])
        except ValueError:
            raise ValueError(f"bad ring {s!r}") from None
        if p >= MAX_MODULUS:
            raise ValueError(f"F{p}: modulus too large (must be below {MAX_MODULUS})")
        if not _is_prime(p):
            raise ValueError(f"F{p}: modulus must be prime")
        return f"F{p}"
    raise ValueError(f"bad ring {s!r}: expected Z, Q, or Fp")


def ring_prime(ring: str) -> int | None:
    return int(ring[1:]) if ring.startswith("F") else None


# -- finitely presented abelian groups ----------------------------------------


@dataclass(frozen=True)
class FPAbelianGroup:
    """Z^rank plus cyclic factors Z/t_1 + ... with t_1 | t_2 | ..., each > 1."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion), "pretty": str(self)}


def group_from_cyclic_orders(rank: int, orders) -> FPAbelianGroup:
    """Canonicalize a direct sum of cyclic groups into invariant factors,
    by the merge ``snf.invariant_factors``, dropping the trivial ones."""
    return FPAbelianGroup(rank, tuple(t for t in invariant_factors(orders) if t > 1))


def direct_sum_groups(groups) -> FPAbelianGroup:
    rank = sum(g.rank for g in groups)
    orders = [t for g in groups for t in g.torsion]
    return group_from_cyclic_orders(rank, orders)


def tensor_groups(a: FPAbelianGroup, b: FPAbelianGroup) -> FPAbelianGroup:
    orders = []
    orders.extend(t for t in a.torsion for _ in range(b.rank))
    orders.extend(u for u in b.torsion for _ in range(a.rank))
    orders.extend(math.gcd(t, u) for t in a.torsion for u in b.torsion)
    return group_from_cyclic_orders(a.rank * b.rank, orders)


def tor_groups(a: FPAbelianGroup, b: FPAbelianGroup) -> FPAbelianGroup:
    return group_from_cyclic_orders(0, [math.gcd(t, u) for t in a.torsion for u in b.torsion])


def kunneth_oracle(hx, hy, n: int) -> FPAbelianGroup:
    """H_n of a tensor product from the factors' integer homology."""
    parts = []
    for i in range(n + 1):
        j = n - i
        if i < len(hx) and j < len(hy):
            parts.append(tensor_groups(hx[i], hy[j]))
    for i in range(n):
        j = n - 1 - i
        if i < len(hx) and j < len(hy):
            parts.append(tor_groups(hx[i], hy[j]))
    return direct_sum_groups(parts)


# -- chain complexes -----------------------------------------------------------


def _free_pair_reduction(diffs) -> tuple[tuple[bytearray, ...], tuple[int, ...]]:
    """Remove free unit pairs from a chain complex until none is left.

    A pair is a in C_{k-1} and b in C_k with <d b, a> = +-1 where row a or
    column b of the current d_k has no other live entry.  Removing it deletes
    row a and column b of d_k, row b of d_{k+1} and column a of d_{k-1}; no
    other entry changes, and the complex splits off a ``Z --1--> Z`` summand
    (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998).  Returns
    the alive flags of each degree and the number of pairs in each d_k.
    """
    top = len(diffs) - 1
    alive = tuple(bytearray(b"\x01") * d.cols for d in diffs)
    faces = []  # faces[k][g]: the rows of column g of d_k
    for d in diffs:
        cols = [[] for _ in range(d.cols)]
        for r, row in d.data.items():
            for c in row:
                cols[c].append(r)
        faces.append(cols)
    nface = [[len(f) for f in fk] for fk in faces]
    ncoface = [[len(up.data.get(g, ())) for g in range(d.cols)]
               for d, up in zip(diffs, diffs[1:])] + [[0] * diffs[top].cols]
    todo = deque((k, g) for k in range(top + 1) for g in range(diffs[k].cols)
                 if nface[k][g] == 1 or ncoface[k][g] == 1)
    pairs = [0] * (top + 1)

    def remove(k: int, g: int):
        alive[k][g] = 0
        if k:
            live, count = alive[k - 1], ncoface[k - 1]
            for r in faces[k][g]:
                if live[r]:
                    count[r] -= 1
                    if count[r] == 1:
                        todo.append((k - 1, r))
        if k < top:
            live, count = alive[k + 1], nface[k + 1]
            for c in diffs[k + 1].data.get(g, ()):
                if live[c]:
                    count[c] -= 1
                    if count[c] == 1:
                        todo.append((k + 1, c))

    while todo:
        k, g = todo.popleft()
        if not alive[k][g]:
            continue
        if nface[k][g] == 1:
            live = alive[k - 1]
            a = next(r for r in faces[k][g] if live[r])
            if diffs[k].data[a][g] in (1, -1):
                remove(k - 1, a)
                remove(k, g)
                pairs[k] += 1
                continue
        if ncoface[k][g] == 1:
            row, live = diffs[k + 1].data[g], alive[k + 1]
            b = next(c for c in row if live[c])
            if row[b] in (1, -1):
                remove(k, g)
                remove(k + 1, b)
                pairs[k + 1] += 1
    return alive, tuple(pairs)


@dataclass(frozen=True)
class ChainComplex:
    """dims[k] generators in degree k; diffs[k]: C_k -> C_{k-1} for k >= 1.

    diffs[0] is the empty matrix for uniform indexing.  ``complete`` records
    whether degrees above the top are genuinely zero (so homology at the top
    degree can be trusted).
    """

    dims: tuple[int, ...]
    diffs: tuple[SparseIntMatrix, ...]
    complete: bool = False
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.dims:
            raise ValueError("a chain complex needs at least degree 0")
        if len(self.diffs) != len(self.dims):
            raise ValueError("diffs and dims length mismatch")
        if self.diffs[0].rows != 0 or self.diffs[0].cols != self.dims[0]:
            raise ValueError("diffs[0] must be the empty matrix on degree 0")
        for k in range(1, len(self.dims)):
            d = self.diffs[k]
            if (d.rows, d.cols) != (self.dims[k - 1], self.dims[k]):
                raise ValueError(f"boundary {k} has shape {d.rows}x{d.cols}, "
                                 f"wanted {self.dims[k - 1]}x{self.dims[k]}")
        for k in range(2, len(self.dims)):
            if not self.diffs[k - 1].mul(self.diffs[k]).is_zero():
                raise ValueError(f"boundary squared is nonzero in degree {k}")

    @classmethod
    def _certified(cls, dims: tuple, boundaries, complete: bool) -> ChainComplex:
        """``make_chain_complex`` without ``__post_init__``, for
        ``unnormalized_chains`` alone: it sizes every boundary by ``dims`` and
        proves d o d = 0 on the face tables."""
        C = object.__new__(cls)
        for name, value in zip(("dims", "diffs", "complete", "_cache"), (
                dims, (SparseIntMatrix.zero(0, dims[0]), *boundaries), complete, {})):
            object.__setattr__(C, name, value)
        return C

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    @property
    def trusted_through(self) -> int:
        """Highest degree whose homology reflects the untruncated object."""
        return self.top_degree if self.complete else self.top_degree - 1

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.top_degree else 0

    def boundary(self, k: int) -> SparseIntMatrix:
        if k <= 0 or k > self.top_degree:
            return SparseIntMatrix.zero(self.dim(k - 1), self.dim(k))
        return self.diffs[k]

    @cached_property
    def _free_pairs(self) -> tuple[tuple[bytearray, ...], tuple[int, ...]]:
        return _free_pair_reduction(self.diffs)

    def _factors(self, k: int) -> tuple[int, ...]:
        """Invariant factors of d_k: (1,) per free pair, then the residual's.

        Each free pair splits off a ``Z --1--> Z`` summand of the complex, so
        only the residual d_k on the unpaired generators is factored.  Degrees
        go bottom-up, 1..k, each once: the rows of d_k at the unit-prefix
        pivots of the residual d_{k-1} (``SmithForm.unit_pivots``) are left
        out, because after those pivots' column steps d_{k-1} d_k = 0 makes
        them zero and leaves every other row as it was.
        """
        if k not in self._cache:
            if k > 1:
                self._factors(k - 1)
            alive, pairs = self._free_pairs
            cleared = self._cache[k - 1][1] if k > 1 else ()
            rows = {r: i for i, r in enumerate(g for g, a in enumerate(alive[k - 1])
                                               if a and g not in cleared)}
            gens = [g for g, a in enumerate(alive[k]) if a]
            cols = {c: j for j, c in enumerate(gens)}
            data = {}
            for r, row in self.diffs[k].data.items():
                i = rows.get(r)
                if i is not None:
                    data[i] = {cols[c]: v for c, v in row.items() if c in cols}
            s = smith_normal_form(SparseIntMatrix(len(rows), len(cols), data))
            self._cache[k] = ((1,) * pairs[k] + s.factors, {gens[j] for j in s.unit_pivots})
        return self._cache[k][0]

    def boundary_rank(self, k: int, ring: str = "Z") -> int:
        """Rank of d_k over ``ring``, read off its integer Smith form.

        Over Z and Q that is the number of invariant factors; over F_p it is
        the number of them that p does not divide.
        """
        p = ring_prime(parse_ring(ring))
        if k <= 0 or k > self.top_degree:
            return 0
        factors = self._factors(k)
        return len(factors) if p is None else sum(1 for d in factors if d % p)


def make_chain_complex(dims, boundaries, complete: bool = False) -> ChainComplex:
    """boundaries[k-1] is d_k for k = 1..top (the degree-0 slot is implied)."""
    dims = tuple(dims)
    diffs = (SparseIntMatrix.zero(0, dims[0]),) + tuple(boundaries)
    return ChainComplex(dims, diffs, complete)


def homology(C: ChainComplex, k: int, ring: str = "Z") -> FPAbelianGroup:
    """H_k over ``ring`` as a group (over a field: just a rank)."""
    ring = parse_ring(ring)
    if not (0 <= k <= C.top_degree):
        raise ValueError(f"degree {k} outside the listed range")
    cycles = C.dim(k) - C.boundary_rank(k, ring)
    if k == C.top_degree:
        # nothing above is listed: a complete complex is zero there, a
        # truncated one is unknown; report the cycle count, callers gate on
        # trusted_through
        return FPAbelianGroup(cycles)
    torsion = tuple(d for d in C._factors(k + 1) if d > 1) if ring == "Z" else ()
    return FPAbelianGroup(cycles - C.boundary_rank(k + 1, ring), torsion)


def graded_homology(C: ChainComplex, through: int | None = None, ring: str = "Z"):
    top = C.top_degree if through is None else min(through, C.top_degree)
    return tuple(homology(C, k, ring) for k in range(top + 1))


def acyclic_through(C: ChainComplex, d: int):
    """(ok, failures): H_k trivial for 0 <= k <= d, with the offending groups."""
    if d > C.trusted_through:
        raise ValueError(f"degree {d} beyond the trusted range (<= {C.trusted_through})")
    failures = []
    for k in range(d + 1):
        h = homology(C, k)
        if not h.is_trivial:
            failures.append((k, h))
    return not failures, failures


# -- chains of semi-simplicial and simplicial sets -----------------------------


def _table_matrix(rows: int, cols: int, tables, signs=None) -> SparseIntMatrix:
    """Sum over i of signs[i] times the 0/1 matrix sending column s to row
    tables[i][s]; ``signs`` defaults to (-1)^i, the alternating face sum.

    Every table has one entry per column, and a ``None`` entry (a degenerate
    face, a column outside the block a map reads) adds nothing.  Entries are
    taken table by table, then column by column, as ``from_entries`` takes
    them: that fixes the row and column order, which
    ``_free_pair_reduction``'s worklist follows.
    """
    if signs is None:
        signs = [-1 if i % 2 else 1 for i in range(len(tables))]
    return SparseIntMatrix.from_entries(
        rows, cols, ((r, s, sign) for tab, sign in zip(tables, signs)
                     for s, r in zip(range(cols), tab, strict=True) if r is not None))


def _sizes_through(sizes: tuple[int, ...], through: int) -> tuple[int, ...]:
    """The listed sizes through degree ``through``, padded with zeros; at
    least one degree."""
    dims = sizes[:through + 1] + (0,) * (through + 1 - len(sizes))
    return dims or (0,)


def _unnormalized_parts(X: SemiSimplicialSet, through: int | None):
    """(dims, boundaries, complete) of the unnormalized chains of X."""
    listed = len(X.sizes) - 1
    if through is None:
        through = listed
    if through > listed and not X.is_complete:
        raise ValueError(f"levels above {listed} are unknown (truncated)")
    dims = _sizes_through(X.sizes, through)
    boundaries = [_table_matrix(dims[k - 1], dims[k], X.faces[k] if k <= listed else ())
                  for k in range(1, len(dims))]
    complete = X.is_complete and through >= (X.top_dim if X.top_dim is not None else -1)
    return dims, boundaries, complete


def unnormalized_chains(X: SemiSimplicialSet, through: int | None = None) -> ChainComplex:
    """One generator per simplex, d = sum of signed faces.  The face
    identities certify d o d = 0: ``validate_sset(X)`` must pass, or
    ``ValueError`` names its first problem."""
    rep = validate_sset(X)
    if not rep.ok:
        raise ValueError(rep.first())
    return ChainComplex._certified(*_unnormalized_parts(X, through))


def normalized_chains(Y: SimplicialSet, through: int | None = None) -> ChainComplex:
    """One generator per nondegenerate simplex; degenerate faces are dropped."""
    listed = len(Y.gen_sizes) - 1
    if through is None:
        through = listed if Y.truncated_at is None else Y.truncated_at
    if Y.truncated_at is not None and through > Y.truncated_at:
        raise ValueError("cannot extend past the truncation")
    dims = _sizes_through(Y.gen_sizes, through)
    # a degenerate face becomes a None entry, which adds nothing
    tables = [[[None if ref.word else ref.gen for ref in tab] for tab in level]
              for level in Y.gen_faces[:len(dims)]]
    boundaries = [_table_matrix(dims[k - 1], dims[k], tables[k] if k < len(tables) else ())
                  for k in range(1, len(dims))]
    complete = Y.truncated_at is None and through >= Y.top_generator_degree
    return make_chain_complex(dims, boundaries, complete)


def augmented_complex(X: SemiSimplicialSet, aug_size: int, aug,
                      through: int | None = None) -> ChainComplex:
    """Shift degrees up by one and glue the augmentation at the bottom.

    Degree 0 is the augmentation set, degree k+1 is X_k, and d_1 is the
    augmentation table.  X's boundaries are built and checked once, by the
    augmented complex's own d o d check.
    """
    dims, boundaries, complete = _unnormalized_parts(X, through)
    d1 = _table_matrix(aug_size, dims[0], [aug], [1])
    return make_chain_complex((aug_size, *dims), [d1, *boundaries], complete)


# -- chain maps ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    mats: tuple[SparseIntMatrix, ...]

    def __post_init__(self):
        if len(self.mats) != len(self.source.dims):
            raise ValueError("chain map must cover every source degree")
        if len(self.target.dims) < len(self.source.dims):
            raise ValueError("target has fewer degrees than source")
        for k, m in enumerate(self.mats):
            if (m.rows, m.cols) != (self.target.dims[k], self.source.dims[k]):
                raise ValueError(f"degree {k}: map shape {m.rows}x{m.cols} does not fit")
        for k in range(1, len(self.mats)):
            if self.target.diffs[k].mul(self.mats[k]) != self.mats[k - 1].mul(self.source.diffs[k]):
                raise ValueError(f"does not commute with the boundary in degree {k}")


def chain_map_from_sset_map(f: SSetMap, through: int | None = None) -> ChainMap:
    src = unnormalized_chains(f.source, through)
    tgt = unnormalized_chains(f.target, through)
    return ChainMap(src, tgt, tuple(_table_matrix(tgt.dims[k], src.dims[k], f.tables[k:k + 1], [1])
                                    for k in range(len(src.dims))))


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if g.source.dims != f.target.dims:
        raise ValueError("composition endpoints do not match")
    return ChainMap(f.source, g.target,
                    tuple(g.mats[k].mul(f.mats[k]) for k in range(len(f.mats))))


def normalization_projection(enum: Enumeration) -> ChainMap:
    """The chain projection from all listed simplices onto the nondegenerate
    generators (degenerate simplices map to zero)."""
    top = len(enum.sset.sizes) - 1
    src = unnormalized_chains(enum.sset)
    tgt = normalized_chains(enum.space, through=top)
    return ChainMap(src, tgt, tuple(_table_matrix(
        tgt.dims[k], src.dims[k], [[None if ref.word else ref.gen for ref in enum.refs[k]]], [1])
        for k in range(top + 1)))


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone_n = src_{n-1} + tgt_n with d(a, b) = (-da, f a + db)."""
    src, tgt = f.source, f.target
    S, T = src.top_degree, tgt.top_degree
    if src.complete and tgt.complete:
        top = max(S + 1, T)
        complete = True
    elif src.complete:
        top = T
        complete = False
    elif tgt.complete:
        top = S + 1
        complete = False
    else:
        top = min(S + 1, T)
        complete = False
    dims = tuple(src.dim(n - 1) + tgt.dim(n) for n in range(top + 1))
    boundaries = []
    for n in range(1, top + 1):
        blocks = {}
        if src.dim(n - 1):
            if src.dim(n - 2):
                blocks[(0, 0)] = src.boundary(n - 1).scale(-1)
            if n - 1 < len(f.mats) and tgt.dim(n - 1):
                blocks[(1, 0)] = f.mats[n - 1]
        if tgt.dim(n) and tgt.dim(n - 1):
            blocks[(1, 1)] = tgt.boundary(n)
        boundaries.append(SparseIntMatrix.block(
            blocks,
            [src.dim(n - 2), tgt.dim(n - 1)],
            [src.dim(n - 1), tgt.dim(n)]))
    return make_chain_complex(dims, boundaries, complete)


# -- homology with coordinates (over Z) -----------------------------------------


@dataclass(frozen=True)
class HomologyCoordinates:
    """Canonical coordinates on H_k over Z.

    Position i carries the order of its cyclic summand (0 means a free
    coordinate); these are Smith pivots in elimination order, so they need
    not divide one another, and ``group`` holds their invariant factors.
    Trivial positions (order 1) are dropped.  ``project`` sends any cycle to
    its class in these coordinates, torsion entries reduced mod their order,
    by one product with ``coords``; ``representative`` reads a column of
    ``cycles``, the inverse of ``coords`` on the cycles of degree k.
    """

    group: FPAbelianGroup
    degree: int
    boundary: SparseIntMatrix
    coords: SparseIntMatrix
    cycles: SparseIntMatrix
    orders: tuple[int, ...]
    positions: tuple[int, ...]

    def project(self, v: dict) -> tuple[int, ...]:
        if self.boundary.apply(v):
            raise ValueError("vector is not a cycle")
        y = self.coords.apply(v)
        out = []
        for i in self.positions:
            d = self.orders[i]
            out.append(y.get(i, 0) % d if d else y.get(i, 0))
        return tuple(out)

    def representative(self, pos: int) -> dict:
        """A cycle whose class has coordinate 1 at ``positions[pos]``."""
        return self.cycles.column(self.positions[pos])


def homology_coordinates(C: ChainComplex, k: int) -> HomologyCoordinates:
    """Coordinates on H_k(C; Z) from two transform Smith forms: ``s`` of d_k
    gives the cycle basis V[:, r:] and coordinates V_inv[r:]; ``t`` factors
    the relations V_inv[r:] d_{k+1} transposed, which in coordinates t.V^T
    span ``t.diagonal[i]`` Z in row i (0 beyond t's rank)."""
    if k == C.top_degree and not C.complete:
        raise ValueError("homology at the top of a truncated complex is not trusted")
    d = C.boundary(k)
    s = smith_normal_form(d, transforms=True)
    r, n = s.rank, d.cols
    z = n - r
    to_cycle = SparseIntMatrix(z, n, {i - r: row for i, row in s.V_inv.data.items() if i >= r})
    from_cycle = SparseIntMatrix(n, z, {i: {j - r: v for j, v in row.items() if j >= r}
                                        for i, row in s.V.data.items()})
    t = smith_normal_form(to_cycle.mul(C.boundary(k + 1)).transpose(), transforms=True)
    orders = t.diagonal + (0,) * (z - t.rank)
    positions = tuple(i for i in range(z) if orders[i] != 1)
    group = FPAbelianGroup(z - t.rank, tuple(f for f in t.factors if f > 1))
    return HomologyCoordinates(group, k, d, t.V.transpose().mul(to_cycle),
                               from_cycle.mul(t.V_inv.transpose()), orders, positions)


def induced_map_on_homology(f: ChainMap, k: int, src_coords: HomologyCoordinates,
                            tgt_coords: HomologyCoordinates) -> list[tuple[int, ...]]:
    """Matrix of H_k(f) from the caller's coordinates on H_k of f's source
    and target: one column per source position."""
    cols = []
    for pos in range(len(src_coords.positions)):
        v = src_coords.representative(pos)
        cols.append(tgt_coords.project(f.mats[k].apply(v)))
    return cols


# -- chain homotopies ------------------------------------------------------------


@dataclass(frozen=True)
class ChainHomotopy:
    """P with dP + Pd = to - from, each side given by explicit matrices."""

    source: ChainComplex
    target: ChainComplex
    maps_from: tuple[SparseIntMatrix, ...]
    maps_to: tuple[SparseIntMatrix, ...]
    P: tuple[SparseIntMatrix, ...]
    through: int


@_staged(21)
def check_chain_homotopy(h: ChainHomotopy) -> ValidationReport:
    problems = []
    src, tgt = h.source, h.target
    for k in range(h.through + 1):
        lhs = SparseIntMatrix.zero(tgt.dim(k), src.dim(k))
        if k < len(h.P):
            lhs = lhs.add(tgt.boundary(k + 1).mul(h.P[k]))
        if k >= 1 and k - 1 < len(h.P):
            lhs = lhs.add(h.P[k - 1].mul(src.boundary(k)))
        rhs = h.maps_to[k].sub(h.maps_from[k])
        if lhs != rhs:
            problems.append(f"dP + Pd != to - from in degree {k}")
    yield problems


def chain_homotopy_from_certificate(cert: ExtraDegeneracy | PrismHomotopy) -> ChainHomotopy:
    """Turn a simplex-level certificate into signed chain-level matrices.

    The identities verified by check_certificate make the result satisfy
    dP + Pd = to - from on the nose; check_chain_homotopy confirms it
    matrix-exactly.
    """
    if isinstance(cert, ExtraDegeneracy):
        X = cert.space
        L = len(cert.up)
        A = augmented_complex(X, cert.aug_size, cert.aug, through=L)
        # degree k of A is level k-1 of X; P_0 is the section of the augmentation
        P = [_table_matrix(A.dims[1], A.dims[0], [cert.h0], [1])]
        P += [_table_matrix(A.dims[k + 1], A.dims[k], [cert.up[k - 1]], [(-1) ** k])
              for k in range(1, L + 1)]
        ident = tuple(SparseIntMatrix.identity(n) for n in A.dims)
        zero = tuple(SparseIntMatrix.zero(n, n) for n in A.dims)
        return ChainHomotopy(A, A, zero, ident, tuple(P), through=L)

    fmap = chain_map_from_sset_map(cert.f)
    gmap = chain_map_from_sset_map(cert.g)
    src, tgt = fmap.source, fmap.target
    P = [_table_matrix(tgt.dims[k + 1], src.dims[k], tri, [(-1) ** (i + 1) for i in range(len(tri))])
         for k, tri in enumerate(cert.tri)]
    return ChainHomotopy(src, tgt, fmap.mats, gmap.mats, tuple(P), through=len(P) - 1)


# -- double complexes -------------------------------------------------------------


@dataclass(frozen=True)
class DoubleComplex:
    """Integer matrices dh[p][q]: (p,q) -> (p-1,q) and dv[p][q]: (p,q) -> (p,q-1).

    Both squares are stored unsigned and commuting; the total complex
    introduces the (-1)^p twist on the vertical direction.
    """

    sizes: tuple[tuple[int, ...], ...]
    dh: tuple[tuple[SparseIntMatrix, ...], ...]
    dv: tuple[tuple[SparseIntMatrix, ...], ...]
    complete_p: bool = False
    complete_q: bool = False

    def size(self, p: int, q: int) -> int:
        if 0 <= p < len(self.sizes) and 0 <= q < len(self.sizes[0]):
            return self.sizes[p][q]
        return 0

    @property
    def p_levels(self) -> int:
        return len(self.sizes)

    @property
    def q_levels(self) -> int:
        return len(self.sizes[0]) if self.sizes else 0


def bicomplex(B: BiSemiSimplicialSet) -> DoubleComplex:
    """Signed row and column boundaries of a bi-semi-simplicial set."""
    P, Q = B.p_levels, B.q_levels
    dh = tuple(tuple(_table_matrix(B.size(p - 1, q) if p else 0, B.size(p, q),
                                   B.dh[p][q] if p else ()) for q in range(Q)) for p in range(P))
    dv = tuple(tuple(_table_matrix(B.size(p, q - 1) if q else 0, B.size(p, q),
                                   B.dv[p][q] if q else ()) for q in range(Q)) for p in range(P))
    return DoubleComplex(B.sizes, dh, dv,
                         complete_p=B.trunc_p is None, complete_q=B.trunc_q is None)


def tensor_double_complex(A: ChainComplex, Bc: ChainComplex,
                          through: int | None = None) -> DoubleComplex:
    """C_{p,q} = A_p (x) B_q with dh = dA (x) id and dv = id (x) dB.

    Basis pairs are ordered a * dim(B_q) + b, matching exterior_product.
    With ``through``, the blocks with p + q > through are not built: their
    dh and dv are None, and only ``total_complex(D, through)`` may read D.
    """
    P, Q = len(A.dims), len(Bc.dims)

    def dh(p, q):
        nb = Bc.dims[q]
        return SparseIntMatrix.from_entries(A.dim(p - 1) * nb, A.dims[p] * nb, (
            (a * nb + b, a2 * nb + b, v) for a, a2, v in A.boundary(p).entries() for b in range(nb)))

    def dv(p, q):
        na, nb, nbm = A.dims[p], Bc.dims[q], Bc.dim(q - 1)
        return SparseIntMatrix.from_entries(na * nbm, na * nb, (
            (a * nbm + b, a * nb + b2, v) for b, b2, v in Bc.boundary(q).entries() for a in range(na)))

    built = [[through is None or p + q <= through for q in range(Q)] for p in range(P)]
    return DoubleComplex(
        tuple(tuple(A.dims[p] * Bc.dims[q] for q in range(Q)) for p in range(P)),
        tuple(tuple(dh(p, q) if built[p][q] else None for q in range(Q)) for p in range(P)),
        tuple(tuple(dv(p, q) if built[p][q] else None for q in range(Q)) for p in range(P)),
        complete_p=A.complete, complete_q=Bc.complete)


@dataclass(frozen=True)
class TotalComplex:
    """Tot_n = direct sum of the antidiagonal, blocks in ascending p.

    starts[n] has one entry per column p of the double complex and a final
    one: block (p, n - p) of Tot_n is range(starts[n][p], starts[n][p + 1]),
    empty when it lies outside the grid, and starts[n][-1] is dim Tot_n.
    """

    complex: ChainComplex
    starts: tuple[tuple[int, ...], ...]


def total_complex(D: DoubleComplex, through: int | None = None) -> TotalComplex:
    """Tot of D, checked once by ``ChainComplex``: d_Tot . d_Tot = 0 holds
    exactly when dh . dh = 0, dv . dv = 0 and every square commutes, since
    the three land in the blocks (p-2, q), (p, q-2) and (p-1, q-1).

    With ``through``, degrees 0..through are listed (no more than D has) and
    only the blocks with p + q <= through are read; the result is complete
    only when D is and nothing was cut.  The block table ``starts`` holds the
    prefix sums of D.size(p, n - p) over the columns p.
    """
    P, Q = D.p_levels, D.q_levels
    top = P + Q - 2 if through is None else min(through, P + Q - 2)
    starts = tuple(tuple(accumulate((D.size(p, n - p) for p in range(P)), initial=0))
                   for n in range(top + 1))
    boundaries = []
    for n in range(1, top + 1):
        row, below = starts[n], starts[n - 1]
        entries = []
        for p in range(P):
            q, off = n - p, row[p]
            if p and off < row[p + 1]:
                entries.extend((below[p - 1] + r, off + c, v) for r, c, v in D.dh[p][q].entries())
            if q and off < row[p + 1]:
                entries.extend((below[p] + r, off + c, -v if p % 2 else v)
                               for r, c, v in D.dv[p][q].entries())
        boundaries.append(SparseIntMatrix.from_entries(below[-1], row[-1], entries))
    complete = D.complete_p and D.complete_q and top == P + Q - 2
    C = make_chain_complex([row[-1] for row in starts], boundaries, complete)
    return TotalComplex(C, starts)


# -- Alexander-Whitney ------------------------------------------------------------


def alexander_whitney(X: SemiSimplicialSet, Y: SemiSimplicialSet) -> tuple[ChainMap, TotalComplex]:
    """AW: C(levelwise X x Y) -> Tot(C X (x) C Y), front face tensor back face.

    The front p-face of x in X_n deletes vertices n, n-1, ..., p+1 and the
    back q-face of y in Y_n deletes vertices n-q-1, ..., 0, both in that
    order; they are tabulated once per level.  When the source is truncated
    at its top degree S, Tot is built through S + 1 only: the map reads
    degrees <= S, and the mapping cone of a map out of an incomplete source
    stops at S + 1 anyway, so it is the cone into the full Tot.
    """
    src = unnormalized_chains(levelwise_product(X, Y))
    through = None if src.complete else src.top_degree + 1
    tot = total_complex(tensor_double_complex(unnormalized_chains(X), unnormalized_chains(Y),
                                              through), through)
    front = _restriction_tables(X, src.top_degree, lambda n, p: n)
    back = _restriction_tables(Y, src.top_degree, lambda n, q: n - q - 1)
    mats = []
    for n in range(len(src.dims)):
        row = tot.starts[n]
        blocks = [(off, front[n][p], back[n][n - p], Y.sizes[n - p])
                  for p, off in enumerate(row[:-1]) if off < row[p + 1]]
        ny = Y.sizes[n]
        entries = [(off + fx[s // ny] * nq + by[s % ny], s, 1)
                   for s in range(src.dims[n]) for off, fx, by, nq in blocks]
        mats.append(SparseIntMatrix.from_entries(tot.complex.dims[n], src.dims[n], entries))
    return ChainMap(src, tot.complex, tuple(mats)), tot
