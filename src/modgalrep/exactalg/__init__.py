"""Exact base arithmetic: integers, finite fields, integer lattices."""

from .arith import (
    divisors,
    euler_phi,
    multiplicative_order,
    primes_up_to,
    unit_group,
    UnitGroup,
    xgcd,
)
from .gf import (
    element_of_order,
    embeddings,
    fq_field,
    FqElem,
    FqField,
    irreducible_roots,
    poly_factor_fq,
    poly_from_ints,
    poly_str,
)
from .intmat import (
    dual_basis,
    exact_dtype,
    kernel_int,
    QuotientMap,
    quotient_by_relations,
    SaturationError,
)

__all__ = [
    "divisors", "euler_phi", "multiplicative_order",
    "primes_up_to", "unit_group", "UnitGroup", "xgcd",
    "element_of_order", "embeddings", "fq_field", "FqElem", "FqField",
    "irreducible_roots", "poly_factor_fq", "poly_from_ints", "poly_str",
    "dual_basis", "exact_dtype", "kernel_int", "QuotientMap",
    "quotient_by_relations", "SaturationError",
]
