"""Binomial permutation polynomials over GF(2^n) with Niho-type exponents.

Construction of the x^d1 + u*x^d2 families (and the monomial complete
permutations they induce), plus verification engines: brute-force bijection
testing, additive character sums, the delta criterion, and the unit-circle
reduction that makes Niho exponents tractable.
"""

from .exponents import (
    NihoParams,
    Theorem1Conditions,
    check_theorem1,
    gcd_mersenne_like,
    gcd_p_2k1_guaranteed_one,
    make_niho,
    order_of_two,
)
from .families import (
    CPP,
    PP,
    FamilyInstance,
    check_prop3,
    conjecture_trinomials,
    cpp_class_params,
    gen_conjecture,
    gen_cpp_class,
    gen_cpp_cor2,
    gen_prop1,
    gen_prop3,
    gen_theorem1,
    prop1_params,
    scan_families,
    scan_to_csv,
    scan_to_jsonl,
)
from .gf2n import (
    SUPPORTED_N,
    FieldCtx,
    SparsePoly,
    canonical_exponent,
    field_new,
)
from .spectra import (
    VerificationReport,
    char_sum,
    count_unit_circle_solutions,
    exp_sum_via_niho,
    is_cpp,
    is_permutation_brute,
    is_pp_charsum,
    is_pp_delta_criterion,
    unique_solution_check,
)
from .unit_circle import (
    UnitCircle,
    build_unit_circle,
    complement_coset,
    polar_decompose,
    power_subgroup,
)

__version__ = "0.1.0"
