"""Constructing permutation binomials x^d1 + u*x^d2 from (m, s, l, e).

The exponents d1 = s*(2^m - 1) + e and d2 = (s - l)*(2^m - 1) + e are
congruent mod 2^m - 1, so the permutation question collapses onto the unit
circle.  Three conditions certify the binomial for every u in U \\ U^r:

  (i)   r = gcd(l, 2^m + 1) > 1
  (ii)  gcd(e + l - 2s, 2^m + 1) = 1
  plus  gcd(d1, 2^n - 1) = 1 so the pivot exponent is invertible.
"""

from nihoperm import (
    check_theorem1,
    gen_theorem1,
    is_permutation_brute,
    is_pp_delta_criterion,
    make_niho,
    prop1_params,
    unique_solution_check,
)

params = make_niho(3, 1, 3, 3)
print(f"m=3, s=1, l=3, e=3  ->  d1 = {params.d1}, d2 = {params.d2} over GF(2^{params.n})")

cond = check_theorem1(params)
print(f"conditions: gcd(d1) ok = {cond.gcd_d1_ok}, r = {cond.r} (> 1: {cond.r_ok}), "
      f"(ii) ok = {cond.cond_ii_ok}, eligible u values = {cond.eligible_u_count}")

instances = gen_theorem1(params)
print(f"generated {len(instances)} binomials:")
for inst in instances:
    brute = is_permutation_brute(inst.poly)
    direct = unique_solution_check(inst.niho, inst.u)
    print(f"  u = 0x{inst.u:x}: {inst.poly.to_spec():<12} "
          f"brute={brute.verdict}  unit-circle={direct.verdict}")

# the delta-criterion engine reaches the same verdicts without enumerating u
f = instances[0].poly
rep = is_pp_delta_criterion(f)
print(f"delta criterion on {f.to_spec()}: engine={rep.engine}, verdict={rep.verdict}")

# six explicit parameter cases always land on r = 3; case 3 needs only k1
p = prop1_params(3, 3, 1)
print(f"case 3 with m=3, k1=1: (s, l, e) = ({p.s}, {p.l}, {p.e}), d1 = {p.d1}")
for inst in gen_theorem1(p):
    assert is_permutation_brute(inst.poly).verdict
print("case-3 binomials all verified by brute force")

# what goes wrong when a condition fails: u a cube, or r = 1
try:
    gen_theorem1(make_niho(3, 1, 1, 3))
except ValueError as exc:
    print(f"l = 1 rejected: {exc}")
