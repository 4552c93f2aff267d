"""Permutation verification engines for sparse polynomials over GF(2^n).

Four routes to the same yes/no question ("is f a permutation?"), so each can
serve as an oracle for the others:

* ``brute``            -- evaluate f on all 2^n points and look for a collision.
* ``charsum``          -- f permutes iff every nontrivial additive character
                          sums to zero over the image (sum over x of
                          (-1)^Tr(gamma*f(x)) = 0 for all gamma != 0).
* ``delta_criterion``  -- for f with a pivot exponent d1 coprime to 2^n - 1,
                          f permutes iff the character sum of
                          x^d1 + sum_i w_i(delta) x^d_i vanishes for every
                          delta != 0, where w_i(delta) = u_i delta^(d1 - d_i).
* ``niho``             -- when all exponents are congruent mod 2^m - 1, each
                          delta-criterion sum collapses to (N - 1) * 2^m with
                          N counted on the (2^m + 1)-point unit circle.  N
                          depends only on delta's class mod 2^m + 1; one count,
                          ``_circle_counts``, gives every class at once, and
                          no array on this path is indexed by the field.
                          ``unique_solution_check`` is this path behind
                          Theorem 1's preconditions.

Every engine takes only its polynomial (or, for ``unique_solution_check``,
its exponent parameters and coefficient): the field comes from the input and
the unit circle from that field, built once per field and shared, so an engine
cannot be handed a circle or field that does not belong to its input.
``delta_path`` is the one rule that decides which delta path applies.

charsum and the direct delta path both take their verdict from one transform
T, ``_char_spectrum``, O(n 2^n): the sum at gamma is T[A gamma] for the trace
form A, a bijection that fixes 0, so only a failure reads T, at the gammas its
witness search asks for.  ``char_sum`` stays the direct O(2^n) sum for one
gamma, independent of T.  Every engine runs at every supported n.

The one whole-field pass is ``_walk``: f in blocks of B = min(2^14, 2^n - 1) consecutive
powers of alpha.  A term's share of the first block is a run of powers, and each later
block is the one before with each run times alpha^(Bd), as (alpha^B x)^d = alpha^(Bd) x^d,
so no exponent is raised by square-and-multiply.  A step is one `FieldCtx._apply` written in
place, and each block is yielded as a new array.  ``brute`` marks the blocks in a mask of
the values seen; the spectrum and char_sum read them as a multiset.  Witnesses need x order,
so ``_values_over_domain`` evaluates by `pow_vec` at the points asked for: f at the prefixes
of a failing brute, and a monomial at the deltas of ``_first_delta``, the delta search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from time import perf_counter

import numpy as np

from .exponents import NihoParams, _require_theorem1
from .gf2n import FieldCtx, SparsePoly, canonical_exponent, field_new
from .unit_circle import UnitCircle, build_unit_circle

__all__ = [
    "SparsePoly",
    "VerificationReport",
    "char_sum",
    "count_unit_circle_solutions",
    "delta_path",
    "exp_sum_via_niho",
    "is_cpp",
    "is_permutation_brute",
    "is_pp_charsum",
    "is_pp_delta_criterion",
    "unique_solution_check",
]

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one engine run: verdict plus a checkable witness on failure.

    ``witness`` is None on success, a failing element (gamma or delta) for the
    character engines, or a colliding input pair (x1, x2) for the brute
    engine.  ``elapsed`` is wall-clock seconds; it is serialized only when
    requested so that reports are byte-stable by default.
    """

    engine: str
    verdict: bool
    witness: object
    elapsed: float
    field: dict

    def witness_hex(self):
        if self.witness is None:
            return None
        if isinstance(self.witness, tuple):
            return ",".join(f"0x{w:x}" for w in self.witness)
        return f"0x{self.witness:x}"

    def to_json(self, timing: bool = False) -> dict:
        out = {
            "engine": self.engine,
            "verdict": self.verdict,
            "witness": self.witness_hex(),
        }
        if timing:
            out["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        out["field"] = self.field
        return out


# Points per block of the walk, so every field with n <= 14 is one block: its arrays stay in cache.
_BLOCK = 1 << 14


def _walk(poly: SparsePoly):
    """f on the nonzero points in blocks of B = min(_BLOCK, 2^n - 1) consecutive powers
    of alpha: block k holds f(alpha^(kB + i)) for i < B, as a new array.  Block 0 sums the
    runs c (alpha^d)^i of the terms c x^d, and block k + 1 is block k with each run stepped
    in place by alpha^(Bd): one table build holds every term's step."""
    ctx = poly.ctx
    size = min(_BLOCK, ctx.mult_order)
    runs = ctx.powers([ctx.pow(ctx.primitive, exp) for _, exp in poly.terms], size,
                      [coeff for coeff, _ in poly.terms])
    yield np.bitwise_xor.reduce(runs, axis=0)
    if size == ctx.mult_order:
        return
    tables = ctx._scalar_tables([ctx.pow(ctx.primitive, size * exp) for _, exp in poly.terms])
    for start in range(size, ctx.mult_order, size):
        runs = runs[:, : ctx.mult_order - start]
        for run, pair in zip(runs, tables):
            ctx._apply(pair, run, out=run)
        yield np.bitwise_xor.reduce(runs, axis=0)


def _values_over_domain(poly: SparsePoly, xs: np.ndarray) -> np.ndarray:
    """f at the uint32 points xs, in their order: per chunk of _BLOCK points,
    one `pow_vec` and one `scalar_mul_vec` per term, XORed.  f(0) = 0."""
    ctx = poly.ctx
    out = np.zeros(len(xs), dtype=np.uint32)
    for lo in range(0, len(xs), _BLOCK):
        for coeff, exp in poly.terms:
            powers = ctx.pow_vec(xs[lo : lo + _BLOCK], exp)
            out[lo : lo + _BLOCK] ^= powers if coeff == 1 else ctx.scalar_mul_vec(coeff, powers)
    return out


def _first_collision(at, order: int) -> tuple:
    """Lowest x2 < order such that at(x2) repeats some at(x1), x1 < x2, with that x1,
    as a sequential scan finds it; ``at`` gives the values at a uint32 array of
    points.  It sorts the values at x < 2^10, 2^12, ... until a prefix holds a
    repeat, asking ``at`` only for the stretch each prefix adds, and raises
    ValueError when no value repeats."""
    prefix, size = np.empty(0, dtype=np.uint32), 1 << 10
    while True:
        stretch = np.arange(len(prefix), min(size, order), dtype=np.uint32)
        prefix = np.concatenate([prefix, at(stretch)])
        repeat = np.ones(len(prefix), dtype=bool)
        repeat[np.unique(prefix, return_index=True)[1]] = False  # first occurrences
        if repeat.any():
            x2 = int(repeat.argmax())
            return int(np.flatnonzero(prefix == prefix[x2])[0]), x2
        if size >= order:
            raise ValueError(f"no value repeats among the {order} values")
        size *= 4


def is_permutation_brute(f: SparsePoly) -> VerificationReport:
    """Exhaustive bijection test; witness is the first colliding input pair.
    The verdict marks the blocks of `_walk(f)` in a mask of the values seen;
    only a failure evaluates f in x order, on the shortest prefix that repeats."""
    t0 = perf_counter()
    ctx = f.ctx
    seen = np.zeros(ctx.order, dtype=bool)
    seen[0] = True
    for k, block in enumerate(_walk(f)):
        seen[block.astype(np.intp)] = True  # cast and scatter beat a uint32 scatter
        if k == 0 and np.count_nonzero(seen) <= len(block):
            break  # a repeat inside the first block: the rest is not needed
    verdict, witness = bool(seen.all()), None
    if not verdict:
        witness = _first_collision(lambda xs: _values_over_domain(f, xs), ctx.order)
    return VerificationReport("brute", verdict, witness, perf_counter() - t0, ctx.field_spec())


def char_sum(g: SparsePoly, gamma: int) -> int:
    """Sum over x of (-1)^Tr(gamma * g(x)); equals 2^n when gamma = 0."""
    ctx = g.ctx
    if not 0 <= gamma < ctx.order:
        raise ValueError(f"gamma 0x{gamma:x} outside GF(2^{ctx.n})")
    # x = 0 adds Tr(0) = 0, so the blocks of the walk suffice; Tr(y) is bit 0 of A y
    images = ctx.scalar_mul_vec(gamma, np.concatenate([*_walk(g)]))
    ones = int((ctx._apply(ctx._trace_tables, images, out=images) & 1).sum())
    return ctx.order - 2 * ones


def _char_spectrum(g: SparsePoly) -> np.ndarray:
    """The Walsh-Hadamard transform T of the image histogram H of g: O(n 2^n).

    S(gamma) = sum over x of (-1)^Tr(gamma * g(x)) = sum over y of H[y] (-1)^Tr(gamma*y),
    and Tr(gamma * y) is the GF(2) dot product of the bits of y with A gamma, where
    (A gamma)_j = Tr(gamma * x^j), the field's trace form.  So S(gamma) = T[A gamma], and
    as A is a bijection with A 0 = 0, S vanishes off 0 iff T does.  Every partial sum is
    bounded by 2^n, so the int64 butterfly is exact.
    """
    ctx = g.ctx
    spectrum = np.bincount(np.concatenate([*_walk(g)]), minlength=ctx.order)
    spectrum[0] += 1  # f(0) = 0
    h = 1
    while h < ctx.order:
        pairs = spectrum.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2
        hi += lo
        h *= 2
    return spectrum


def is_pp_charsum(g: SparsePoly) -> VerificationReport:
    """Character-sum permutation test; witness is the first gamma that fails."""
    t0 = perf_counter()
    ctx, spectrum, witness = g.ctx, _char_spectrum(g), None
    if spectrum[1:].any():
        witness = _first_delta(SparsePoly.make(ctx, [(1, 1)]),
                               lambda gammas: spectrum[ctx._apply(ctx._trace_tables, gammas)] != 0)
    return VerificationReport("charsum", witness is None, witness, perf_counter() - t0,
                              ctx.field_spec())


def delta_path(ctx: FieldCtx, exponents, *, force_direct: bool = False):
    """Pivot and path of the delta criterion for these exponents of GF(2^n).

    Returns (pivot, engine).  ``pivot`` is the index of the first exponent
    coprime to 2^n - 1, or None when there is none.  ``engine`` is "niho" (the
    unit-circle path) when every exponent is congruent mod 2^m - 1 and
    ``force_direct`` is off, otherwise "delta_criterion" (the full-field path).
    """
    pivot = next((i for i, e in enumerate(exponents) if gcd(e, ctx.mult_order) == 1), None)
    step = 2**ctx.m - 1
    if not force_direct and all((e - exponents[0]) % step == 0 for e in exponents):
        return pivot, "niho"
    return pivot, "delta_criterion"


def is_pp_delta_criterion(f: SparsePoly, *, force_direct: bool = False) -> VerificationReport:
    """Delta-criterion permutation test; witness is the first delta that fails.

    The path is :func:`delta_path`'s.  When every exponent is congruent to the
    pivot mod 2^m - 1 the per-delta sum depends only on the class of delta
    mod 2^m + 1, and :func:`_circle_counts` gives every class at once (engine
    "niho", about (2^m + 1)^2 array work).  Otherwise, or under
    ``force_direct``, every sum is read off the character spectrum of f over
    the whole field (engine "delta_criterion", one Walsh-Hadamard transform:
    cost n 2^n).  On both paths the witness search costs about the witness.
    """
    t0 = perf_counter()
    ctx = f.ctx
    pivot, engine = delta_path(ctx, f.exponents(), force_direct=force_direct)
    if pivot is None:
        raise ValueError(
            "delta criterion needs a term with exponent coprime to 2^n - 1; "
            f"none found in {f.to_spec()!r}"
        )

    c1, d1 = f.terms[pivot]
    witness = None
    if engine == "niho":
        # Dividing by the pivot coefficient does not change whether f permutes.
        ic = ctx.inv(c1)
        rest = [(ctx.mul(c, ic), e) for i, (c, e) in enumerate(f.terms) if i != pivot]
        # delta^(d1 - d_i) = (delta^(2^m - 1))^q_i, and delta^(2^m - 1) is the
        # circle point whose index is the class of delta
        step = 2**ctx.m - 1
        circle = build_unit_circle(ctx)
        counts = _circle_counts(circle, [d1] + [e for _, e in rest], [c for c, _ in rest],
                                [(d1 - e) % ctx.mult_order // step for _, e in rest])
        failing = np.array(circle.elements, dtype=np.uint32)[counts != 1]
        if len(failing):
            witness = _first_delta(SparsePoly.make(ctx, [(1, step)]), lambda v: np.isin(v, failing))
    else:
        # x -> x/delta turns the sum at delta into the character sum of f at
        # gamma = delta^d1 / c1, and as delta runs over the nonzero elements so
        # does gamma (d1 is coprime to 2^n - 1): the verdict is the spectrum's
        spectrum = _char_spectrum(f)
        if spectrum[1:].any():
            g = SparsePoly.make(ctx, [(ctx.inv(c1), d1)])
            witness = _first_delta(
                g, lambda gammas: spectrum[ctx._apply(ctx._trace_tables, gammas)] != 0)
    return VerificationReport(engine, witness is None, witness, perf_counter() - t0,
                              ctx.field_spec())


def _circle_counts(circle: UnitCircle, ds, coeffs, qs) -> np.ndarray:
    """The unit-circle count N(t) for every class t in [0, 2^m + 1).

    N(t) = #{lam on the circle : lam^d1 + sum_i c_i g^(t q_i) lam^(d_i) lies in GF(2^m)},
    where ``ds`` = [d1, d_2, ...], g is the circle generator and ``circle.elements[i]`` = g^i.
    Writing lam = g^a, a term is T[(t q_i + a d_i) mod M], M = 2^m + 1, with T the image of
    c_i * elements under x -> x^(2^m) + x (kernel GF(2^m)): one (rows x M) gather per term
    from T doubled, at the uint16 indices (t q_i mod M) + (a d_i mod M) < 2M, so nothing is
    reduced mod M.  N(t) depends on t only mod M / gcd(M, q_1, ...); only those rows are
    computed.
    """
    ctx = circle.ctx
    pts = np.array(circle.elements, dtype=np.uint32)
    M = len(pts)
    t = np.arange(M // gcd(M, *qs))[:, None]
    a = np.arange(M)
    h = np.broadcast_to(ctx._subfield_residue(pts)[a * ds[0] % M], (len(t), M))
    for c, d, q in zip(coeffs, ds[1:], qs):
        term = np.tile(ctx._subfield_residue(ctx.scalar_mul_vec(c, pts)), 2)[
            (t * q % M).astype(np.uint16) + (a * d % M).astype(np.uint16)]
        h = np.bitwise_xor(term, h, out=term)
    return np.resize(M - np.count_nonzero(h, axis=1), M)


def _first_delta(g: SparsePoly, fails) -> int:
    """Smallest delta >= 1 that fails, where ``fails`` maps the values of g at a
    uint32 block of deltas to a bool array; searched in blocks of doubling size from
    2^m + 1, so the cost follows the answer rather than 2^n.  Some delta must fail."""
    ctx, lo, size = g.ctx, 1, 2**g.ctx.m + 1
    while True:
        block = np.arange(lo, min(lo + size, ctx.order), dtype=np.uint32)
        hits = np.flatnonzero(fails(_values_over_domain(g, block)))
        if len(hits):
            return lo + int(hits[0])
        lo, size = lo + size, 2 * size


def _check_niho_shape(ctx: FieldCtx, d_list, w_list):
    if len(d_list) < 1:
        raise ValueError("need at least the leading exponent d1")
    if len(w_list) != len(d_list) - 1:
        raise ValueError(
            f"need one coefficient per trailing exponent: got {len(w_list)} "
            f"for {len(d_list) - 1}"
        )
    ds = [canonical_exponent(d, ctx.n) for d in d_list]
    pivot, engine = delta_path(ctx, ds)
    if engine != "niho":
        raise ValueError(f"exponents {ds} are not all congruent mod 2^m - 1 = {2**ctx.m - 1}")
    if pivot != 0:
        raise ValueError(f"gcd(d1={ds[0]}, 2^n - 1) != 1")
    for w in w_list:
        if not 0 <= w < ctx.order:
            raise ValueError(f"coefficient 0x{w:x} outside GF(2^{ctx.n})")
    return ds


def count_unit_circle_solutions(ctx: FieldCtx, d_list, w_list) -> int:
    """N = #{lam on the unit circle of ctx : lam^d1 + sum w_i lam^d_i lies in GF(2^m)}.

    Defined for exponents all congruent mod 2^m - 1 with gcd(d1, 2^n - 1) = 1.
    This is class 0 of :func:`_circle_counts`.
    """
    ds = _check_niho_shape(ctx, d_list, w_list)
    return int(_circle_counts(build_unit_circle(ctx), ds, w_list, [0] * len(w_list))[0])


def exp_sum_via_niho(ctx: FieldCtx, d_list, w_list) -> int:
    """The character sum of x^d1 + sum w_i x^d_i, as (N - 1) * 2^m.

    N is :func:`count_unit_circle_solutions`; the collapse from 2^n summands
    to a circle count is what makes Niho exponents tractable.
    """
    n_sol = count_unit_circle_solutions(ctx, d_list, w_list)
    return (n_sol - 1) << ctx.m


def unique_solution_check(params: NihoParams, u: int) -> VerificationReport:
    """Whether x^d1 + u*x^d2 permutes GF(2^n), n = params.n: the niho path
    of :func:`is_pp_delta_criterion` (witness rule included) once the
    preconditions below hold.

    There the count for delta has coefficient w = u * delta^(d1 - d2) on the
    unit circle, and each count should be 1: for lam and w on the circle,
    lam^d1 + w*lam^d2 lies in GF(2^m) iff
    (w*lam^d2 + lam^d1) * (w*lam^(d1+d2) + 1) = 0; the second factor has the
    single root w^(-1/(d1 + d2)) by condition (ii), and the first has none
    because u is not an r-th power.

    Preconditions: params meet Theorem 1 (``exponents.check_theorem1``; a
    failure is the ValueError of the family generators), and u lies on the
    circle but is not an r-th power.
    """
    ctx = field_new(params.n)
    r = _require_theorem1(params)
    if not 0 < u < ctx.order or ctx.pow(u, 2**ctx.m + 1) != 1:
        raise ValueError(f"u = 0x{u:x} is not on the unit circle")
    if ctx.pow(u, (2**ctx.m + 1) // r) == 1:
        raise ValueError(f"u = 0x{u:x} is an r-th power on the circle (r = {r})")
    return is_pp_delta_criterion(SparsePoly.make(ctx, [(1, params.d1), (u, params.d2)]))


def is_cpp(f: SparsePoly) -> VerificationReport:
    """Complete-permutation test: both f and f + x must permute (brute force)."""
    t0 = perf_counter()
    rep = is_permutation_brute(f)
    if rep.verdict:
        rep = is_permutation_brute(f.plus_x())
    return VerificationReport("brute", rep.verdict, rep.witness, perf_counter() - t0,
                              f.ctx.field_spec())
