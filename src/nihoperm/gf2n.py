"""Arithmetic in the binary fields GF(2^n) for even n between 4 and 20.

Field elements are plain Python ints in ``range(2**n)``: the integer's bits
are the coordinates of the element in the polynomial basis {1, x, ..., x^(n-1)}
modulo a fixed irreducible polynomial.  Every supported degree is pinned to one
modulus and one primitive element so that serialized results are reproducible
across runs and machines:

    n   modulus                     primitive
    4   x^4 + x + 1                 (0x13)      0x2
    6   x^6 + x + 1                 (0x43)      0x2
    8   x^8 + x^4 + x^3 + x + 1     (0x11b)     0x3
    10  x^10 + x^3 + 1              (0x409)     0x2
    12  x^12 + x^3 + 1              (0x1009)    0x3
    14  x^14 + x^5 + 1              (0x4021)    0x7
    16  x^16 + x^5 + x^3 + x + 1    (0x1002b)   0x3
    18  x^18 + x^3 + 1              (0x40009)   0xa
    20  x^20 + x^3 + 1              (0x100009)  0x2

The modulus is the irreducible trinomial with the smallest integer encoding,
falling back to the smallest pentanomial when no trinomial exists (n = 8, 16);
the primitive element is the smallest generator of the multiplicative group.

Scalar operations work bit by bit on ints.  Bulk operations act on numpy uint32 arrays
and are what make exhausting a 2^20-element domain affordable; they are cross-checked
against the scalar routines in the test suite.  The kernels that are GF(2)-linear in their
argument (`sqr_vec`, `scalar_mul_vec`, `trace_bits`, `in_subfield`) are one table lookup
for the low m = n/2 bits of each element XORed with one for the high m bits, each table
holding 2^m <= 1024 images; `_linear_maps` builds the tables of K maps at once (the
doublings of `powers`, the steps of a walk), and over the whole field a map is the outer
XOR of its two tables.  `in_subfield`'s x^(2^m) + x takes x^(2^m) from m squarings.  The
product of two arrays (`mul_vec`, and so `pow_vec`) keeps the shift-and-reduce bit loop.
No log/antilog tables are used anywhere; the only engine caller of `pow_vec` is
`spectra._values_over_domain`, for the witness searches.  Public scalar ops and kernels
raise a ValueError naming any element outside the field; their inner loops (`_mul`,
`_mul_vec`) do not check, and a context whose element does not generate GF(2^n)* is
refused, as the whole-field walk relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt

import numpy as np

# n -> (irreducible modulus, least primitive element)
_PINNED = {
    4: (0x13, 0x2),
    6: (0x43, 0x2),
    8: (0x11B, 0x3),
    10: (0x409, 0x2),
    12: (0x1009, 0x3),
    14: (0x4021, 0x7),
    16: (0x1002B, 0x3),
    18: (0x40009, 0xA),
    20: (0x100009, 0x2),
}

SUPPORTED_N = tuple(sorted(_PINNED))

def canonical_exponent(k: int, n: int) -> int:
    """Reduce an exponent k >= 1 into [1, 2^n - 1] preserving x -> x^k on GF(2^n).

    The reduction is mod 2^n - 1 but maps multiples of 2^n - 1 to 2^n - 1
    itself rather than to 0, because x^0 and x^(2^n - 1) differ at x = 0.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    return (k - 1) % (2**n - 1) + 1


class FieldCtx:
    """GF(2^n) with a pinned modulus and primitive element.

    Use :func:`field_new` to construct one; instances are cheap and cache
    their numpy lookup tables lazily.  Equality is by value: two contexts
    with the same (n, irreducible, primitive) are equal and hash alike,
    whether or not they share tables.
    """

    def __init__(self, n: int, irreducible: int, primitive: int):
        if n not in _PINNED:
            raise ValueError(f"unsupported field degree n={n}: need even n with 4 <= n <= 20")
        self.n = n
        self.m = n // 2
        self.order = 1 << n
        self.mult_order = self.order - 1
        self.irreducible = irreducible
        self.primitive = primitive
        # the walk runs over powers of the element; the tests check the pinned pairs,
        # which `field_new` builds on every call
        if _PINNED.get(n) != (irreducible, primitive) and not self._generates():
            raise ValueError(f"0x{primitive:x} does not generate GF(2^{n})* modulo "
                             f"0x{irreducible:x}: need a modulus of degree {n} and an "
                             f"element of order 2^{n} - 1")

    def _generates(self) -> bool:
        """Whether the modulus has degree n and a = primitive has order N = 2^n - 1, which
        also proves the modulus irreducible: a^N = 1 and a^(N/q) != 1 for each prime q | N.
        `_pow` reduces mod N, so a^N is a^(N - 1) a."""
        a, N = self.primitive, self.mult_order
        primes = [q for q in range(2, 2**self.m + 2)  # q | (2^m - 1)(2^m + 1)
                  if N % q == 0 and all(q % p for p in range(2, isqrt(q) + 1))]
        return (self.irreducible.bit_length() == self.n + 1 and 0 < a < self.order
                and self._mul(self._pow(a, N - 1), a) == 1
                and all(self._pow(a, N // q) != 1 for q in primes))

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, irreducible=0x{self.irreducible:x})"

    def _key(self) -> tuple:
        return (self.n, self.irreducible, self.primitive)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def field_spec(self) -> dict:
        """JSON-ready description of the field, embedded in every report."""
        return {
            "n": self.n,
            "irreducible_hex": f"0x{self.irreducible:x}",
            "primitive_hex": f"0x{self.primitive:x}",
        }

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def _element(self, a: int) -> int:
        """a, else a ValueError naming n and a: the check of every public scalar op."""
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} (0x{a:x}) outside GF(2^{self.n})")
        return a

    def mul(self, a: int, b: int) -> int:
        """Product of two field elements."""
        return self._mul(self._element(a), self._element(b))

    def _mul(self, a: int, b: int) -> int:
        """`mul` on elements of the field, unchecked: shift and reduce."""
        p = 0
        top = 1 << self.n
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.irreducible
        return p

    def sqr(self, a: int) -> int:
        return self._mul(self._element(a), a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse, via a^(2^n - 2)."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.mult_order - 1)

    def pow(self, a: int, k: int) -> int:
        """a**k with exponents taken mod 2^n - 1 on nonzero elements.

        0**0 = 1, 0**k = 0 for k > 0, and negative k inverts first
        (so 0 with negative k is an error).
        """
        return self._pow(self._element(a), k)

    def _pow(self, a: int, k: int) -> int:
        """`pow` on an element of the field, unchecked."""
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        k %= self.mult_order
        result = 1
        base = a
        while k:
            if k & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            k >>= 1
        return result

    def trace(self, a: int, sub_m: int = 1) -> int:
        """Trace from GF(2^n) onto the subfield GF(2^sub_m)."""
        if sub_m < 1:
            raise ValueError(f"sub_m={sub_m} must be >= 1")
        if self.n % sub_m != 0:
            raise ValueError(f"sub_m={sub_m} does not divide n={self.n}")
        acc = t = self._element(a)
        for _ in range(self.n // sub_m - 1):
            for _ in range(sub_m):
                t = self._mul(t, t)
            acc ^= t
        return acc

    # -- vectorized arithmetic on uint32 arrays ---------------------------

    def domain(self) -> np.ndarray:
        """The full field as a new uint32 array [0, 1, ..., 2^n - 1]."""
        return np.arange(self.order, dtype=np.uint32)

    def _elements(self, arr) -> np.ndarray:
        """arr as an array of field elements, else a ValueError naming n and an outsider."""
        arr = np.asarray(arr)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"field elements must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.max() >= self.order or arr.dtype.kind == "i" and arr.min() < 0):
            self._element(int(arr[(arr < 0) | (arr >= self.order)][0]))
        return arr

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two arrays of field elements."""
        return self._mul_vec(self._elements(a), self._elements(b))

    def _mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """`mul_vec` on arrays from the field, unchecked: the shift-and-reduce loop."""
        a, b = a.astype(np.uint32), b.astype(np.uint32)
        p = np.zeros_like(a)
        irr = np.uint32(self.irreducible)
        for _ in range(self.n):
            p ^= a * (b & np.uint32(1))
            b >>= np.uint32(1)
            a <<= np.uint32(1)
            a ^= ((a >> np.uint32(self.n)) & np.uint32(1)) * irr
        return p

    def powers(self, a, count: int, start=1) -> np.ndarray:
        """start * a^i for i < count as a uint32 array, or a row per element of a list a
        (and of start, if a list): a chain of ``mul`` gives the first ceil(count / 2^k)
        <= 8, and k doublings pts[s : 2s] = a^s * pts[:s] the rest, tables from one build."""
        bases = [a] if np.ndim(a) == 0 else a
        k = max(0, (count - 1).bit_length() - 3)
        head = -(-count >> k)
        pts = np.empty((len(bases), count), dtype=np.uint32)
        steps = []
        for row, base, first in zip(pts, bases, np.broadcast_to(start, len(bases)).tolist()):
            chain = [self._element(first)]
            self._element(base)
            while len(chain) < head:
                chain.append(self._mul(chain[-1], base))
            row[:head] = chain[:head]
            steps.append(self._pow(base, head))
        for _ in range(1, k):  # doubling j multiplies by a^(head 2^j)
            steps += [self._mul(s, s) for s in steps[-len(bases) :]]
        size, tables = head, self._scalar_tables(steps[: k * len(bases)])
        for maps in tables.reshape(k, len(bases), 2, 1 << self.m):
            take = min(size, count - size)
            for row, pair in zip(pts, maps):
                row[size : size + take] = self._linear_map(pair)(row[:take])
            size += take
        return pts if np.ndim(a) else pts[0]

    def _times_basis(self, c: int, count: int) -> list:
        """c * x^j for j < count by shift-and-reduce, for an element c."""
        images = []
        for _ in range(count):
            images.append(c)
            c = c << 1
            c ^= (c >> self.n) * self.irreducible
        return images

    def _linear_maps(self, images) -> np.ndarray:
        """(K, 2, 2^m) lo/hi tables of the K GF(2)-linear maps x^j -> images[j][k]
        (images of shape (n, K), or (n,) for K = 1), each built by doubling."""
        images = np.asarray(images, dtype=np.uint32).reshape(2, self.m, -1)
        halves = images.transpose(2, 0, 1)[..., None]
        tables = np.zeros((len(halves), 2, 1 << self.m), dtype=np.uint32)
        for j in range(self.m):
            np.bitwise_xor(tables[..., : 1 << j], halves[:, :, j], out=tables[..., 1 << j : 2 << j])
        return tables

    def _scalar_tables(self, scalars) -> np.ndarray:
        """`_linear_maps` of x -> c * x for every element c in the list ``scalars``."""
        images = [self._times_basis(c, self.n) for c in scalars]
        return self._linear_maps(np.array(images, np.uint32).T)

    def _linear_map(self, tables: np.ndarray):
        """The map of one table pair of `_linear_maps` on uint32 arrays: the low
        m bits of an element index the first table, the high m bits the second."""
        (lo, hi), low, m = tables, np.uint32((1 << self.m) - 1), np.uint32(self.m)
        return lambda arr: lo.take(arr & low) ^ hi.take(arr >> m)

    def scalar_mul_vec(self, c: int, arr: np.ndarray) -> np.ndarray:
        """c * arr for a single field element c."""
        if not 0 <= c < self.order:
            raise ValueError(f"scalar c={c} outside GF(2^{self.n})")
        return self._linear_map(self._scalar_tables([c])[0])(self._elements(arr))

    @cached_property
    def _square(self):
        """x -> x^2 on arrays from the field, unchecked: tables of x^j -> x^(2j)."""
        squares = self._times_basis(1, 2 * self.n - 1)[::2]
        return self._linear_map(self._linear_maps(squares)[0])

    def sqr_vec(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise square, through the cached tables of x^j -> x^(2j)."""
        return self._square(self._elements(arr))

    def pow_vec(self, arr: np.ndarray, k: int) -> np.ndarray:
        """Elementwise arr**k for k >= 0 (same 0-versus-2^n-1 care as pow)."""
        if k < 0:
            raise ValueError("pow_vec requires k >= 0; reduce negative exponents first")
        base = self._elements(arr).astype(np.uint32, copy=False)
        if k == 0:
            return np.ones_like(base)
        # left to right over the bits of k: square, then multiply on a 1
        result = base.copy()
        for bit in bin(canonical_exponent(k, self.n))[3:]:
            result = self._square(result)
            if bit == "1":
                result = self._mul_vec(result, base)
        return result

    @cached_property
    def _power_traces(self) -> int:
        """The int whose bit j is Tr(x^j), j < 2n - 1: n traces, then bit k >= n from
        x^k = x^(k - n) (x^n + modulus), the parity of the earlier bits the modulus picks."""
        bits = sum(self.trace(1 << j) << j for j in range(self.n))
        for k in range(self.n, 2 * self.n - 1):
            bits |= ((bits >> (k - self.n) & self.irreducible).bit_count() & 1) << k
        return bits

    @cached_property
    def _traces(self) -> np.ndarray:
        """Tr(x) at x = hi * 2^m + lo, with no 2^n-point temporary; read-only, as shared."""
        images = [self._power_traces >> j & 1 for j in range(self.n)]
        lo, hi = self._linear_maps(images)[0].astype(np.uint8)
        traces = np.bitwise_xor.outer(hi, lo).ravel()
        traces.setflags(write=False)
        return traces

    def trace_bits(self) -> np.ndarray:
        """Cached read-only uint8 array: absolute trace of every field element."""
        return self._traces

    @cached_property
    def _residue(self) -> np.ndarray:
        """Tables of x -> x^(2^m) + x, the Frobenius of the basis from m passes of `_square`."""
        basis = frobenius = np.uint32(1) << np.arange(self.n, dtype=np.uint32)
        for _ in range(self.m):
            frobenius = self._square(frobenius)
        return self._linear_maps(frobenius ^ basis)[0]

    def _subfield_residue(self, arr: np.ndarray) -> np.ndarray:
        """x^(2^m) + x on arr: linear, zero exactly on GF(2^m)."""
        return self._linear_map(self._residue)(arr)

    def in_subfield(self, arr: np.ndarray) -> np.ndarray:
        """Bool array: which elements of arr lie in the subfield GF(2^m)."""
        return self._subfield_residue(self._elements(arr)) == 0

    def subfield_mask(self) -> np.ndarray:
        """Bool array marking GF(2^m) in GF(2^n): where the residue's table entries agree."""
        lo, hi = self._residue
        return np.equal.outer(hi, lo).ravel()


def field_new(n: int) -> FieldCtx:
    """Construct the pinned GF(2^n) context for even n in [4, 20]; `FieldCtx` refuses other n."""
    return FieldCtx(n, *_PINNED.get(n, (0, 0)))


@dataclass(frozen=True)
class SparsePoly:
    """Polynomial over GF(2^n) stored as a sorted tuple of (coeff, exponent).

    Exponents live in [1, 2^n - 1] (reduced by :func:`canonical_exponent`),
    repeated exponents are merged by XOR of coefficients, and zero
    coefficients are dropped, so equal maps built from different term lists
    compare equal.
    """

    ctx: FieldCtx
    terms: tuple

    @classmethod
    def make(cls, ctx: FieldCtx, terms) -> "SparsePoly":
        merged: dict[int, int] = {}
        for coeff, exp in terms:
            if not 0 <= coeff < ctx.order:
                raise ValueError(f"coefficient 0x{coeff:x} outside GF(2^{ctx.n})")
            e = canonical_exponent(exp, ctx.n)
            merged[e] = merged.get(e, 0) ^ coeff
        canon = tuple((c, e) for e, c in sorted(merged.items()) if c != 0)
        return cls(ctx, canon)

    @classmethod
    def from_spec(cls, ctx: FieldCtx, text: str) -> "SparsePoly":
        """Parse "coeff:exp,coeff:exp,..." with hex coefficients and decimal exponents."""
        terms = []
        for part in text.split(","):
            piece = part.strip()
            if not piece:
                raise ValueError(f"empty term in polynomial spec {text!r}")
            try:
                coeff_s, exp_s = piece.split(":")
                terms.append((int(coeff_s, 16), int(exp_s, 10)))
            except ValueError as exc:
                raise ValueError(
                    f"malformed term {piece!r}: expected hexcoeff:exponent"
                ) from exc
        if not terms:
            raise ValueError("polynomial spec has no terms")
        return cls.make(ctx, terms)

    def to_spec(self) -> str:
        return ",".join(f"{c:x}:{e}" for c, e in self.terms)

    def eval(self, x: int) -> int:
        return eval_sparse(self, x)

    def plus_x(self) -> "SparsePoly":
        """The map x -> f(x) + x, used for complete-permutation checks."""
        return SparsePoly.make(self.ctx, list(self.terms) + [(1, 1)])

    def exponents(self) -> tuple:
        return tuple(e for _, e in self.terms)

    def has_unit_pivot(self) -> bool:
        """True when some exponent is coprime to 2^n - 1."""
        return any(gcd(e, self.ctx.mult_order) == 1 for _, e in self.terms)


def eval_sparse(poly: SparsePoly, x: int) -> int:
    """Evaluate a sparse polynomial at one point with scalar ops."""
    ctx = poly.ctx
    ctx._element(x)
    acc = 0
    for coeff, exp in poly.terms:
        acc ^= ctx._mul(coeff, ctx._pow(x, exp))
    return acc
