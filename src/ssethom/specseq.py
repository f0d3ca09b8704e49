"""Spectral sequence of a double complex over a prime field or the rationals.

Filtration by columns: F_p of the total complex spans the blocks with first
index <= p.  Pages come from explicit subspace chains

    Z^r(p,q) = F_p(T_n) meet D^{-1} F_{p-r}(T_{n-1}),      n = p + q,
    E^r(p,q) = Z^r(p,q) / (Z^{r-1}(p-1,q+1) + D Z^{r-1}(p+r-1,q-r+2)),

with deterministic echelon bases throughout.  Page-1 representatives are the
pure vertical homology classes of each column, so the d^1 matrices agree
entry-for-entry with the induced horizontal maps computed column-wise.

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

from .homalg import DoubleComplex, TotalComplex, ring_prime, total_complex


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

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)[0]

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

    basis[(p,q)] lists class representatives as coordinate vectors in the
    total complex of the filtered orientation.  diff[(p,q)] is a row-major
    matrix into the page's (p-r, q+r-1) spot basis.
    """

    r: int
    orientation: str
    dims: dict
    basis: dict
    diff: dict

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)


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
    return DoubleComplex(D.ring, sizes, dh, dv, D.complete_q, D.complete_p)


class _Filtration:
    """Scratch for one orientation: total complex, block offsets, Z^r chains."""

    def __init__(self, D: DoubleComplex):
        self.T = total_complex(D)
        self.p = ring_prime(D.ring)
        self.P = D.p_levels
        self.Q = D.q_levels
        self.offsets = {}
        for n, blocks in enumerate(self.T.layout):
            for (bp, bq, off, size) in blocks:
                self.offsets[(bp, bq)] = (n, off, size)
        self._z_cache: dict = {}
        self._images: dict = {}

    def dim_total(self, n: int) -> int:
        return self.T.complex.dim(n)

    def filt_end(self, n: int, pmax: int) -> int:
        """T_n's blocks are laid out by increasing p, so filtration level pmax
        is the coordinate range(filt_end(n, pmax))."""
        end = 0
        if 0 <= n < len(self.T.layout):
            for (bp, bq, off, size) in self.T.layout[n]:
                if bp <= pmax:
                    end = off + size
        return end

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

    def vertical_homology_reps(self, p: int, q: int) -> list[dict]:
        """Representatives of H_q(column p), as pure block (p,q) cycles."""
        got = self.offsets.get((p, q))
        if got is None:
            return []
        n, off, size = got
        lower = self.offsets.get((p, q - 1))
        lo, hi = (lower[1], lower[1] + lower[2]) if lower is not None else (0, 0)
        imgs = self.boundary_images(n)
        images = [{i: x for i, x in imgs[off + c].items() if lo <= i < hi}
                  for c in range(size)]
        cycles = [{off + j: x for j, x in k.items()} for k in _nullspace(images, self.p)]
        # mod out the image of the block straight above; the total boundary of
        # a pure (p, q+1) vector meets this block exactly in its vertical part
        ech = _Echelon(self.p)
        upper = self.offsets.get((p, q + 1))
        if upper is not None:
            _, uoff, usize = upper
            above = self.boundary_images(n + 1)
            for c in range(usize):
                ech.add({i: x for i, x in above[uoff + c].items() if off <= i < off + size})
        return [z for z in cycles if ech.add(z)]


def spectral_sequence(D: DoubleComplex, orientation: str = "cols", R: int = 12) -> list[SSPage]:
    """Pages E^0 .. E^stable (or E^R, whichever comes first)."""
    if orientation not in ("cols", "rows"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if ring_prime(D.ring) is None and D.ring != "Q":
        raise ValueError("spectral sequence needs field coefficients (Q or Fp)")
    work = transpose_double_complex(D) if orientation == "rows" else D
    filt = _Filtration(work)
    stable = max(1, min(filt.P, filt.Q + 1))

    pages = [_page_zero(filt, orientation)]
    reps: dict = {}
    for r in range(1, R + 1):
        page, reps = _page(filt, r, orientation, reps)
        pages.append(page)
        if r >= stable:
            break
    return pages


def _page_zero(filt: _Filtration, orientation: str) -> SSPage:
    dims = {}
    basis = {}
    diff = {}
    for p in range(filt.P):
        for q in range(filt.Q):
            got = filt.offsets.get((p, q))
            if got is None or got[2] == 0:
                continue
            n, off, size = got
            dims[(p, q)] = size
            basis[(p, q)] = tuple(_dense({off + c: 1}, filt.dim_total(n), filt.p)
                                  for c in range(size))
    for (p, q) in basis:
        if dims.get((p, q - 1), 0) == 0:
            continue
        n, off, size = filt.offsets[(p, q)]
        _, toff, tsize = filt.offsets[(p, q - 1)]
        imgs = filt.boundary_images(n)
        cols = [{i - toff: x for i, x in imgs[off + c].items() if toff <= i < toff + tsize}
                for c in range(size)]
        diff[(p, q)] = _matrix(cols, tsize, filt.p)
    return SSPage(0, orientation, dims, basis, diff)


def _page(filt: _Filtration, r: int, orientation: str,
          prev_reps: dict) -> tuple[SSPage, dict]:
    """Page r, and its sparse class representatives for page r + 1."""
    reps: dict = {}
    denoms: dict = {}
    dims = {}
    for p in range(filt.P):
        for q in range(filt.Q):
            n = p + q
            if filt.dim_total(n) == 0:
                continue
            ech = _Echelon(filt.p)
            denom_gens = list(filt.z_space(r - 1, p - 1, q + 1))
            for z in filt.z_space(r - 1, p + r - 1, q - r + 2):
                denom_gens.append(filt.apply_d(n + 1, z))
            for g in denom_gens:
                ech.add(g)
            if r == 1:
                preferred = filt.vertical_homology_reps(p, q)
            else:
                preferred = prev_reps.get((p, q), [])
            zbasis = filt.z_space(r, p, q)
            zech = _Echelon(filt.p)
            for z in zbasis:
                zech.add(z)
            spot_reps = [c for c in preferred if zech.contains(c) and ech.add(c)]
            spot_reps += [z for z in zbasis if ech.add(z)]
            if spot_reps:
                dims[(p, q)] = len(spot_reps)
                reps[(p, q)] = spot_reps
            denoms[(p, q)] = (ech, denom_gens)

    diff = {}
    for (p, q), vecs in reps.items():
        tp, tq = p - r, q + r - 1
        images = [filt.apply_d(p + q, v) for v in vecs]
        if (tp, tq) not in reps:
            tgt = denoms.get((tp, tq))
            for img in images:
                if img and (tgt is None or not tgt[0].contains(img)):
                    raise AssertionError(
                        f"page {r}: image at {(tp, tq)} is not a denominator element")
            continue
        target_ech = _Echelon(filt.p)
        for w in reps[(tp, tq)]:
            target_ech.add(w)
        for g in denoms[(tp, tq)][1]:
            target_ech.add(g)
        tdim = len(reps[(tp, tq)])
        cols = []
        for img in images:
            coords = target_ech.coordinates(img)
            if coords is None:
                raise AssertionError(f"page {r}: image not in Z^r at {(tp, tq)}")
            cols.append({t: c for t, c in coords.items() if t < tdim})
        diff[(p, q)] = _matrix(cols, tdim, filt.p)

    basis = {(p, q): tuple(_dense(v, filt.dim_total(p + q), filt.p) for v in vecs)
             for (p, q), vecs in reps.items()}
    return SSPage(r, orientation, dims, basis, diff), reps


def check_convergence(pages: list[SSPage], T: TotalComplex) -> ConvergenceReport:
    """Sum of stable-page dimensions per total degree against dim H(Tot)."""
    ring = T.complex.ring
    if ring_prime(ring) is None and ring != "Q":
        raise ValueError("convergence check needs field coefficients (Q or Fp)")
    last = pages[-1]
    problems = []
    grid = pages[0].dims
    if grid:
        maxp = max(p for (p, q) in grid)
        maxq = max(q for (p, q) in grid)
        stable = max(1, min(maxp + 1, maxq + 2))
        if last.r < stable:
            problems.append(
                f"pages stop at r={last.r}, before the stable page r={stable}")
    if any(any(any(row) for row in m) for m in last.diff.values()):
        problems.append("the last page still carries a nonzero differential")
    degrees = []
    for n in range(T.complex.trusted_through + 1):
        total = sum(d for (p, q), d in last.dims.items() if p + q == n)
        dim_h = (T.complex.dim(n) - T.complex.boundary_rank(n)
                 - T.complex.boundary_rank(n + 1))
        degrees.append((n, total, dim_h))
        if total != dim_h:
            problems.append(f"degree {n}: E-infinity total {total} != dim H {dim_h}")
    return ConvergenceReport(not problems, tuple(degrees), tuple(problems))
