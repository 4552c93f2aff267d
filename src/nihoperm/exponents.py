"""Niho-type exponent pairs over GF(2^(2m)), Theorem 1's conditions on them,
and the gcd facts they rely on.

The exponents of interest are congruent to a power of 2 modulo 2^m - 1; after
multiplying by that power's inverse they take the shape d = s*(2^m - 1) + e.
The binomials studied here pair d1 = s*(2^m - 1) + e with
d2 = (s - l)*(2^m - 1) + e, so both exponents restrict to x^e on the subfield
GF(2^m) and differ by l*(2^m - 1).

`check_theorem1` is the one statement of Theorem 1's three sufficient
conditions on such a pair: gcd(d1, 2^n - 1) = 1, r = gcd(l, 2^m + 1) > 1 and
gcd(e + l - 2s, 2^m + 1) = 1.  The family generators and the unit-circle
engine both ask it, through `_require_theorem1`, and so fail with one message.

`gcd_mersenne_like` gives gcd(2^r +- 1, 2^s +- 1) in closed form and
`gcd_p_2k1_guaranteed_one` decides, from the multiplicative order of 2 modulo
an odd prime p, whether gcd(p, 2^k + 1) = 1 is forced.  They are the paper's
gcd lemmas, exported and checked against direct gcds by the tests; no engine
or generator calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class NihoParams:
    """An exponent pair d1, d2 over GF(2^n), n = 2m, defined by (m, s, l, e)."""

    m: int
    s: int
    l: int
    e: int
    n: int
    d1: int
    d2: int
    gcd_d1_one: bool


def make_niho(m: int, s: int, l: int, e: int) -> NihoParams:
    """Build the canonical exponent pair for parameters (m, s, l, e).

    d1 = s*(2^m - 1) + e and d2 = (s - l)*(2^m - 1) + e are reduced into
    [1, 2^n - 1]; s and l may be any integers, e must be >= 1 so that the
    reduction preserves the map at x = 0.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    n = 2 * m
    mult_order = 2**n - 1
    step = 2**m - 1
    d1 = (s * step + e - 1) % mult_order + 1
    d2 = ((s - l) * step + e - 1) % mult_order + 1
    # gcd(d1, 2^n - 1) splits across the coprime factors 2^m - 1 and 2^m + 1.
    gcd_d1_one = gcd(e, 2**m - 1) == 1 and gcd(e - 2 * s, 2**m + 1) == 1
    return NihoParams(m=m, s=s, l=l, e=e, n=n, d1=d1, d2=d2, gcd_d1_one=gcd_d1_one)


@dataclass(frozen=True)
class Theorem1Conditions:
    """The three sufficient conditions for x^d1 + u*x^d2 to permute."""

    gcd_d1_ok: bool
    r: int
    r_ok: bool
    cond_ii_ok: bool
    eligible_u_count: int

    @property
    def all_ok(self) -> bool:
        return self.gcd_d1_ok and self.r_ok and self.cond_ii_ok


def check_theorem1(p: NihoParams) -> Theorem1Conditions:
    """Evaluate gcd(d1, 2^n - 1) = 1, r = gcd(l, 2^m + 1) > 1, and
    gcd(e + l - 2s, 2^m + 1) = 1 for an exponent pair."""
    m_ord = 2**p.m + 1
    r = gcd(p.l, m_ord)
    cond_ii = gcd(p.e + p.l - 2 * p.s, m_ord) == 1
    return Theorem1Conditions(
        gcd_d1_ok=p.gcd_d1_one,
        r=r,
        r_ok=r > 1,
        cond_ii_ok=cond_ii,
        eligible_u_count=m_ord - m_ord // r,
    )


def _require_theorem1(p: NihoParams, prop3: bool = False) -> int:
    """r = gcd(l, 2^m + 1) for a pair meeting all three conditions; otherwise
    a ValueError naming the first that fails (in prop-3 terms if asked)."""
    cond = check_theorem1(p)
    if cond.all_ok:
        return cond.r
    if not cond.gcd_d1_ok:
        msg = f"gcd(d1,2^n-1)=1 failed (d1={p.d1}, n={p.n})"
    elif not cond.r_ok and prop3:
        msg = f"condition (i) r:=gcd(s,2^m+1)>1 failed (s={p.s}, r={cond.r})"
    elif not cond.r_ok:
        msg = f"condition (i) r:=gcd(l,2^m+1)>1 failed (l={p.l}, r={cond.r})"
    elif prop3:
        msg = f"condition (ii) gcd(s-1,2^m+1)=1 failed (s={p.s})"
    else:
        msg = f"condition (ii) gcd(e+l-2s,2^m+1)=1 failed (e={p.e}, l={p.l}, s={p.s})"
    raise ValueError(msg)


def gcd_mersenne_like(r: int, sign_r: int, s: int, sign_s: int) -> int:
    """gcd(2^r + sign_r, 2^s + sign_s) for r, s >= 1 and signs in {-1, +1}.

    Closed forms, writing g = gcd(r, s):
      * gcd(2^r - 1, 2^s - 1) = 2^g - 1
      * gcd(2^r - 1, 2^s + 1) = 1 if r/g is odd, else 2^g + 1
      * gcd(2^r + 1, 2^s + 1) = 2^g + 1 if r/g and s/g are both odd, else 1
    """
    if r < 1 or s < 1:
        raise ValueError(f"need r, s >= 1, got r={r}, s={s}")
    if sign_r not in (-1, 1) or sign_s not in (-1, 1):
        raise ValueError("signs must be -1 or +1")
    g = gcd(r, s)
    if sign_r == -1 and sign_s == -1:
        return 2**g - 1
    if sign_r == 1 and sign_s == 1:
        return 2**g + 1 if (r // g) % 2 == 1 and (s // g) % 2 == 1 else 1
    # mixed signs: the minus side decides
    minus_quot = r // g if sign_r == -1 else s // g
    return 1 if minus_quot % 2 == 1 else 2**g + 1


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    f = 3
    while f * f <= p:
        if p % f == 0:
            raise ValueError(f"p must be an odd prime, got {p} = {f} * {p // f}")
        f += 2


def order_of_two(p: int) -> int:
    """Multiplicative order of 2 modulo an odd prime p."""
    _check_odd_prime(p)
    r = 1
    v = 2 % p
    while v != 1:
        v = v * 2 % p
        r += 1
    return r


def gcd_p_2k1_guaranteed_one(p: int, k: int) -> bool:
    """Whether gcd(p, 2^k + 1) = 1 is forced by the order of 2 mod p.

    With r = order_of_two(p): an odd r forces gcd 1; an even r forces gcd 1
    unless r/2 divides k, in which case the gcd is 1 when 2k/r is even and p
    when 2k/r is odd.  Returns True only in the forced-1 cases, so False
    means "no guarantee" (and in fact p divides 2^k + 1 when r/2 | k with
    2k/r odd).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = order_of_two(p)
    if r % 2 == 1:
        return True
    half = r // 2
    if k % half != 0:
        return True
    return (2 * k // r) % 2 == 0
