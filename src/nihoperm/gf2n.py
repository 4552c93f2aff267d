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
against the scalar routines in the test suite.  A GF(2)-linear map (a scalar multiple,
squaring, x^(2^m) + x, the trace form) is a pair of tables holding the images of the low
and of the high m = n/2 bits of an element, 2^m <= 1024 each; `_linear_maps` builds the
pairs of K maps at once, read-only, and `_apply` is the one lookup of a pair on an array.
Only `trace_bits()` and `subfield_mask()` spread a pair over the whole field, as the outer
product of its two tables, into a new array; every cache holds one pair.  The product
of two arrays (`mul_vec`, and so `pow_vec`) keeps the shift-and-reduce bit loop.
No log/antilog tables are used anywhere; the only engine caller of `pow_vec` is
`spectra._values_over_domain`, for the witness searches.  `FieldCtx._element` is the one
check of an element, here and in the engines: a ValueError naming n and the outsider.  The
inner loops (`_mul`, `_mul_vec`) do not check.  Fields of one order are isomorphic, so n names
the field; the tests re-derive each pinned pair by the rule above, the walk's generator included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd

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
    """GF(2^n) with the modulus and primitive element pinned for n.

    :func:`field_new` gives the one shared context per n.  Its lazy tables go in `__dict__`, and
    the slots keep attribute reads fast once they do (CPython 3.11 slows reads through a written
    `__dict__`).  Equality is by n: `FieldCtx(n)` equals `field_new(n)` and hashes alike, though
    it builds tables of its own.
    """
    __slots__ = "n m order mult_order irreducible primitive _low _shift __dict__".split()

    def __init__(self, n: int):
        if n not in _PINNED:
            raise ValueError(f"unsupported field degree n={n}: need even n with 4 <= n <= 20")
        self.n = n
        self.m = n // 2
        self.order = 1 << n
        self.mult_order = self.order - 1
        self.irreducible, self.primitive = _PINNED[n]
        self._low, self._shift = np.uint32((1 << self.m) - 1), np.uint32(self.m)  # for `_apply`

    def __repr__(self) -> str:
        return f"FieldCtx(n={self.n}, irreducible=0x{self.irreducible:x})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

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
        """a, else a ValueError naming n and a: the one check of a field element."""
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} ({a:#x}) outside GF(2^{self.n})")
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

    def powers(self, bases: list, count: int, starts: list) -> np.ndarray:
        """A (len(bases), count) uint32 array whose row j is starts[j] * bases[j]^i, i < count
        (lists of equal length): a chain of ``mul`` gives the first ceil(count / 2^k) <= 8, and
        k doublings row[s : 2s] = base^s * row[:s] the rest, tables from one build."""
        k = max(0, (count - 1).bit_length() - 3)
        head = -(-count >> k)
        pts = np.empty((len(bases), count), dtype=np.uint32)
        steps = []
        for row, base, first in zip(pts, bases, starts, strict=True):
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
                self._apply(pair, row[:take], out=row[size : size + take])
            size += take
        return pts

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
        tables.setflags(write=False)  # the cached pairs are shared by every caller of a field
        return tables

    def _scalar_tables(self, scalars) -> np.ndarray:
        """`_linear_maps` of x -> c * x for every element c in the list ``scalars``."""
        images = [self._times_basis(c, self.n) for c in scalars]
        return self._linear_maps(np.array(images, np.uint32).T)

    def _apply(self, tables: np.ndarray, arr: np.ndarray, out=None) -> np.ndarray:
        """The map of a table pair of `_linear_maps` on an array from the field, unchecked: the
        images of the low and of the high m bits of each element, XORed into ``out`` (a new
        array if None).  The high bits are looked up before ``out`` is written, so ``out`` may
        be ``arr``.  Mode "wrap" never wraps, as the indices are below 2^m; unlike the default
        mode it writes straight to ``out`` with no bounds check, and it is faster than "clip"."""
        lo, hi = tables
        high = hi.take(arr >> self._shift, mode="wrap")
        out = lo.take(arr & self._low, out=out, mode="wrap")
        out ^= high
        return out

    def scalar_mul_vec(self, c: int, arr: np.ndarray) -> np.ndarray:
        """c * arr for a single field element c."""
        return self._apply(self._scalar_tables([self._element(c)])[0], self._elements(arr))

    @cached_property
    def _squares(self) -> np.ndarray:
        """Tables of x -> x^2: the images x^j -> x^(2j)."""
        return self._linear_maps(self._times_basis(1, 2 * self.n - 1)[::2])[0]

    def sqr_vec(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise square, through the cached `_squares` tables."""
        return self._apply(self._squares, self._elements(arr))

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
            result = self._apply(self._squares, result, out=result)
            if bit == "1":
                result = self._mul_vec(result, base)
        return result

    @cached_property
    def _trace_tables(self) -> np.ndarray:
        """Tables of the trace form A, (A y)_j = Tr(y x^j); bit 0 of A y is Tr(y).  A x^i is bits
        i to i + n - 1 of the int whose bit k is s_k = Tr(x^k), from the modulus x^n + e_1
        x^(n-1) + ... + e_n by Newton's identities over GF(2): with s_0 = Tr(1) = 0 (n even),
        s_k = k e_k [k <= n] + e_1 s_(k-1) + ... + e_j s_(k-j), j = min(k, n): earlier bits."""
        n, bits = self.n, 0
        for k in range(1, 2 * n - 1):
            odd = k < n and k & 1 and self.irreducible >> (n - k) & 1  # k e_k
            bits |= ((bits << n >> k & self.irreducible).bit_count() + odd) % 2 << k
        return self._linear_maps([bits >> i & (self.order - 1) for i in range(n)])[0]

    def trace_bits(self) -> np.ndarray:
        """The absolute trace of every element as a new uint8 array: bit 0 of `_trace_tables`."""
        lo, hi = (self._trace_tables & 1).astype(np.uint8)
        return np.bitwise_xor.outer(hi, lo).ravel()

    @cached_property
    def _residue(self) -> np.ndarray:
        """Tables of x -> x^(2^m) + x, the Frobenius of the basis from m squarings."""
        basis = frobenius = np.uint32(1) << np.arange(self.n, dtype=np.uint32)
        for _ in range(self.m):
            frobenius = self._apply(self._squares, frobenius)
        return self._linear_maps(frobenius ^ basis)[0]

    def subfield_mask(self) -> np.ndarray:
        """Bool array marking GF(2^m) in GF(2^n): where the residue's table entries agree."""
        lo, hi = self._residue
        return np.equal.outer(hi, lo).ravel()


@cache
def field_new(n: int) -> FieldCtx:
    """The shared `FieldCtx(n)` for even n in [4, 20], one per n; `FieldCtx` refuses other n."""
    return FieldCtx(n)


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
            ctx._element(coeff)
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
        return cls.make(ctx, terms)

    def to_spec(self) -> str:
        return ",".join(f"{c:x}:{e}" for c, e in self.terms)

    def eval(self, x: int) -> int:
        """f(x) at one point, by scalar ops."""
        ctx = self.ctx
        ctx._element(x)
        acc = 0
        for coeff, exp in self.terms:
            acc ^= ctx._mul(coeff, ctx._pow(x, exp))
        return acc

    def plus_x(self) -> "SparsePoly":
        """The map x -> f(x) + x, used for complete-permutation checks."""
        return SparsePoly.make(self.ctx, list(self.terms) + [(1, 1)])

    def exponents(self) -> tuple:
        return tuple(e for _, e in self.terms)

    def has_unit_pivot(self) -> bool:
        """True when some exponent is coprime to 2^n - 1."""
        return any(gcd(e, self.ctx.mult_order) == 1 for _, e in self.terms)
