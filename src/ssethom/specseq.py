"""Spectral sequence of a double complex over a prime field or the rationals.

The double complex is integral; the field is an argument of
``spectral_sequence`` and ``check_convergence``, parsed there.

Filtration by columns: F_p of the total complex spans the blocks with first
index <= p.  Pages come from explicit subspace chains

    Z^r(p,q) = F_p(T_n) meet D^{-1} F_{p-r}(T_{n-1}),      n = p + q,
    E^r(p,q) = Z^r(p,q) / (Z^{r-1}(p-1,q+1) + D Z^{r-1}(p+r-1,q-r+2)),

with deterministic echelon bases throughout.  Each spot is computed on block
(p,q) alone, modulo F_{p-1}: Z^{r-1}(p-1,q+1) is exactly Z^r(p,q) meet
F_{p-1}, the kernel of the projection pi onto block (p,q), and
D Z^{r-1}(p+r-1,q-r+2) lies in Z^r(p,q), so

    E^r(p,q) = pi Z^r(p,q) / pi D Z^{r-1}(p+r-1,q-r+2)

and one echelon the size of the block holds the whole quotient.  Page 0 is
the case r = 0: Z^0(p,q) is F_p and pi kills every denominator.  Page-1
representatives are the pure vertical homology classes of each column, so
the d^1 matrices agree entry-for-entry with the induced horizontal maps
computed column-wise.

Filtering by rows runs the same machinery on the transposed double complex.

Internally a vector is a sparse dict {index: nonzero value}.  Over F_p the
values are ints in range(p).  Over Q they stay ints until a pivot other than
+-1 forces a Fraction, which keeps the arithmetic exact and cheap; pages
publish dense tuples of Fractions over Q.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .homalg import DoubleComplex, TotalComplex, homology, parse_ring, ring_prime, total_complex


# -- sparse linear algebra over Q or F_p ----------------------------------------


def _axpy(v: dict, a, w: dict, p: int | None) -> list[int]:
    """v += a * w in place, dropping zeros; returns the indices w made nonzero."""
    fresh = []
    for i, x in w.items():
        y = v.get(i)
        if y is None:
            v[i] = a * x if p is None else a * x % p
            fresh.append(i)
        else:
            y = y + a * x if p is None else (y + a * x) % p
            if y:
                v[i] = y
            else:
                del v[i]
    return fresh


def _scale(v: dict, a, p: int | None) -> dict:
    if p is None:
        return {i: x * a for i, x in v.items()}
    return {i: x * a % p for i, x in v.items()}


def _inverse(a, p: int | None):
    if p is not None:
        return pow(a, -1, p)
    return a if a in (1, -1) else 1 / Fraction(a)


class _Echelon:
    """A growing span of sparse vectors kept in forward-reduced echelon form.

    Each pivot is normalised to 1 at its leading index and remembers how it
    was assembled from the vectors fed to add(), so membership tests can
    return coordinates over those generators.  Every add() call consumes one
    generator tag, hit or miss.
    """

    def __init__(self, p: int | None):
        self.p = p
        self.pivots: dict[int, tuple[dict, dict]] = {}
        self.count = 0

    def reduce(self, vec: dict) -> tuple[dict, dict]:
        """Returns (v, expr) with v = vec + sum expr[t] * generator_t."""
        v = dict(vec)
        expr: dict = {}
        pivots = self.pivots
        todo = [i for i in v if i in pivots]
        heapq.heapify(todo)
        # a pivot touches no index below its own, so popping indices in
        # increasing order meets them exactly as a dense sweep would
        while todo:
            r = heapq.heappop(todo)
            a = v.get(r)
            if a is None:
                continue
            pivot, pexpr = pivots[r]
            for i in _axpy(v, -a, pivot, self.p):
                if i in pivots:
                    heapq.heappush(todo, i)
            _axpy(expr, -a, pexpr, self.p)
        return v, expr

    def _insert(self, v: dict, expr: dict) -> bool:
        """Consume one tag for the generator that reduced to (v, expr)."""
        tag = self.count
        self.count += 1
        if not v:
            return False
        lead = min(v)
        inv = _inverse(v[lead], self.p)
        pexpr = _scale(expr, inv, self.p)
        pexpr[tag] = inv
        self.pivots[lead] = (_scale(v, inv, self.p), pexpr)
        return True

    def add(self, vec: dict) -> bool:
        """Feed one generator; True if it enlarged the span."""
        return self._insert(*self.reduce(vec))

    def coordinates(self, vec: dict) -> dict | None:
        """vec as a combination of the fed generators (by tag), or None."""
        v, expr = self.reduce(vec)
        if v:
            return None
        return _scale(expr, -1, self.p)


def _nullspace(images: list[dict], p: int | None) -> list[dict]:
    """Kernel basis of the map sending e_j to images[j], deterministic.

    Feed the images left to right, so tag j is image j; each image already in
    the span of the earlier ones yields the kernel vector e_j + sum expr[t] e_t.
    """
    ech = _Echelon(p)
    kernel = []
    for j, img in enumerate(images):
        v, expr = ech.reduce(img)
        if not ech._insert(v, expr):
            expr[j] = 1
            kernel.append(expr)
    return kernel


def _tail(vec: dict, start: int) -> dict:
    """The part of vec at indices start and above."""
    return {i: x for i, x in vec.items() if i >= start}


def _dense(vec: dict, dim: int, p: int | None) -> tuple:
    """The dense tuple a page publishes: Fractions over Q, residues over F_p."""
    out = [0 if p is not None else Fraction(0)] * dim
    for i, x in vec.items():
        out[i] = x if p is not None else Fraction(x)
    return tuple(out)


def _matrix(cols: list[dict], rows: int, p: int | None) -> tuple:
    """Row-major dense matrix with the given sparse columns."""
    dense = [_dense(col, rows, p) for col in cols]
    return tuple(tuple(col[i] for col in dense) for i in range(rows))


# -- pages -----------------------------------------------------------------------


@dataclass(frozen=True)
class SSPage:
    """One page: dims and bases per spot, differentials keyed by source spot.

    A spot missing from ``dims`` is zero.  basis[(p,q)] lists class
    representatives as coordinate vectors in the total complex of the
    filtered orientation.  diff[(p,q)] is a row-major matrix into the page's
    (p-r, q+r-1) spot basis.
    """

    r: int
    orientation: str
    dims: dict
    basis: dict
    diff: dict


@dataclass(frozen=True)
class ConvergenceReport:
    ok: bool
    degrees: tuple
    problems: tuple = ()


def transpose_double_complex(D: DoubleComplex) -> DoubleComplex:
    """Swap the two gradings; the commuting-square convention is symmetric."""
    P, Q = D.p_levels, D.q_levels
    sizes = tuple(tuple(D.sizes[p][q] for p in range(P)) for q in range(Q))
    dh = tuple(tuple(D.dv[p][q] for p in range(P)) for q in range(Q))
    dv = tuple(tuple(D.dh[p][q] for p in range(P)) for q in range(Q))
    return DoubleComplex(sizes, dh, dv, D.complete_q, D.complete_p)


class _Filtration:
    """Scratch for one orientation: total complex, boundary images, Z^r chains."""

    def __init__(self, D: DoubleComplex, p: int | None):
        self.T = total_complex(D)
        self.p = p
        self.P = D.p_levels
        self.Q = D.q_levels
        self._z_cache: dict = {}
        self._images: dict = {}

    def dim_total(self, n: int) -> int:
        return self.T.complex.dim(n)

    def filt_end(self, n: int, pmax: int) -> int:
        """T_n's blocks go by increasing p, so filtration level pmax is the
        coordinate range(filt_end(n, pmax)), up to where column pmax + 1 starts."""
        starts = self.T.starts
        return starts[n][min(max(pmax + 1, 0), self.P)] if 0 <= n < len(starts) else 0

    def boundary_images(self, n: int) -> list[dict]:
        """Sparse image of the total boundary on each coordinate of T_n."""
        if n not in self._images:
            cols: list[dict] = [{} for _ in range(self.dim_total(n))]
            for (r, c, val) in self.T.complex.boundary(n).entries():
                if self.p is not None:
                    val %= self.p
                if val:
                    cols[c][r] = val
            self._images[n] = cols
        return self._images[n]

    def apply_d(self, n: int, vec: dict) -> dict:
        out: dict = {}
        imgs = self.boundary_images(n)
        for c, a in vec.items():
            _axpy(out, a, imgs[c], self.p)
        return out

    def z_space(self, r: int, p: int, q: int) -> list[dict]:
        """Echelon basis of Z^r(p,q), as vectors in T_{p+q} coordinates."""
        key = (r, p, q)
        if key not in self._z_cache:
            n = p + q
            low = self.filt_end(n - 1, p - r)
            imgs = self.boundary_images(n)
            images = [{i: x for i, x in imgs[c].items() if i >= low}
                      for c in range(self.filt_end(n, p))]
            self._z_cache[key] = _nullspace(images, self.p)
        return self._z_cache[key]

    def vertical_cycles(self, p: int, q: int) -> list[dict]:
        """Vertical cycles of column p as pure block (p,q) vectors; they span
        H_q(column p), and _page drops the boundaries."""
        n = p + q
        off, end = self.T.starts[n][p:p + 2]
        lo, hi = self.T.starts[n - 1][p:p + 2] if q else (0, 0)
        imgs = self.boundary_images(n)
        images = [{i: x for i, x in imgs[c].items() if lo <= i < hi} for c in range(off, end)]
        return [{off + j: x for j, x in k.items()} for k in _nullspace(images, self.p)]


def _field_prime(ring: str) -> int | None:
    """The characteristic of the field ``ring`` names, None for Q."""
    ring = parse_ring(ring)
    if ring == "Z":
        raise ValueError("spectral sequences need field coefficients (Q or Fp)")
    return ring_prime(ring)


def spectral_sequence(D: DoubleComplex, ring: str, orientation: str = "cols") -> list[SSPage]:
    """Pages E^0 .. E^stable over the field ``ring``; from the stable page on,
    every differential leaves the nonzero spots of E^0 (``_stable_page``)."""
    if orientation not in ("cols", "rows"):
        raise ValueError(f"unknown orientation {orientation!r}")
    work = transpose_double_complex(D) if orientation == "rows" else D
    filt = _Filtration(work, _field_prime(ring))
    page, reps = _page(filt, 0, orientation, {})
    pages = [page]
    for r in range(1, _stable_page(page) + 1):
        page, reps = _page(filt, r, orientation, reps)
        pages.append(page)
    return pages


def _stable_page(E0: SSPage) -> int:
    """The first page r >= 1 from which every d_r, running (p, q) to
    (p - r, q + r - 1), leaves the nonzero spots of E^0."""
    maxp = max((p for p, q in E0.dims), default=0)
    maxq = max((q for p, q in E0.dims), default=0)
    return min(maxp + 1, maxq + 2)


def _page(filt: _Filtration, r: int, orientation: str,
          prev_reps: dict) -> tuple[SSPage, dict]:
    """Page r, and its sparse class representatives for page r + 1.

    One echelon per spot, on block (p,q) coordinates; d_r reads each class's
    coefficient at its representative's tag, unique modulo the denominators.
    """
    reps: dict = {}
    spots: dict = {}
    for p in range(filt.P):
        for q in range(filt.Q):
            n = p + q
            if filt.dim_total(n) == 0:
                continue
            block = filt.filt_end(n, p - 1)
            ech = _Echelon(filt.p)
            # a vector in F_{p-1} projects to nothing, and so does its D-image
            below = filt.filt_end(n + 1, p - 1)
            for z in filt.z_space(r - 1, p + r - 1, q - r + 2):
                if max(z) >= below:
                    tail = _tail(filt.apply_d(n + 1, z), block)
                    if tail:
                        ech.add(tail)
            low = filt.filt_end(n - 1, p - r)
            preferred = filt.vertical_cycles(p, q) if r == 1 else prev_reps.get((p, q), [])
            # a preferred vector is kept when it lies in Z^r(p,q): D lands in F_{p-r}
            candidates = [c for c in preferred if all(i < low for i in filt.apply_d(n, c))]
            spot_reps, tags = [], []
            for c in candidates + [z for z in filt.z_space(r, p, q) if max(z) >= block]:
                if ech.add(_tail(c, block)):
                    spot_reps.append(c)
                    tags.append(ech.count - 1)
            if spot_reps:
                reps[(p, q)] = spot_reps
            spots[(p, q)] = (ech, tags, block)

    diff = {}
    for (p, q), vecs in reps.items():
        tp, tq = p - r, q + r - 1
        end = filt.filt_end(p + q - 1, tp)
        ech, tags, block = spots.get((tp, tq), (_Echelon(filt.p), [], end))
        cols = []
        for v in vecs:
            img = filt.apply_d(p + q, v)
            coords = ech.coordinates(_tail(img, block))
            if coords is None or any(i >= end for i in img):
                raise AssertionError(f"page {r}: image not in Z^r at {(tp, tq)}")
            cols.append({k: coords[t] for k, t in enumerate(tags) if t in coords})
        if tags:
            diff[(p, q)] = _matrix(cols, len(tags), filt.p)

    dims = {spot: len(vecs) for spot, vecs in reps.items()}
    basis = {(p, q): tuple(_dense(v, filt.dim_total(p + q), filt.p) for v in vecs)
             for (p, q), vecs in reps.items()}
    return SSPage(r, orientation, dims, basis, diff), reps


def check_convergence(pages: list[SSPage], T: TotalComplex, ring: str) -> ConvergenceReport:
    """Sum of stable-page dimensions per total degree against dim H(Tot) over
    the field ``ring``."""
    _field_prime(ring)
    last = pages[-1]
    problems = []
    stable = _stable_page(pages[0])
    if last.r < stable:
        problems.append(f"pages stop at r={last.r}, before the stable page r={stable}")
    if any(any(any(row) for row in m) for m in last.diff.values()):
        problems.append("the last page still carries a nonzero differential")
    degrees = []
    for n in range(T.complex.trusted_through + 1):
        total = sum(d for (p, q), d in last.dims.items() if p + q == n)
        dim_h = homology(T.complex, n, ring).rank
        degrees.append((n, total, dim_h))
        if total != dim_h:
            problems.append(f"degree {n}: E-infinity total {total} != dim H {dim_h}")
    return ConvergenceReport(not problems, tuple(degrees), tuple(problems))
