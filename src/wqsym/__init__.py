"""Hopf algebras of signed permutations, quasi-symmetric and weak
quasi-symmetric functions, with exact rational arithmetic and exhaustive
verification of the identities relating them."""

from .lincomb import LinComb, lc_mul, tensor, tensor_bilinear, tensor_bimap
from .words import (
    quasi_shuffle,
    shifted_quasi_shuffle,
    shifted_shuffle,
    standardize,
    weak_descent_set,
)
from .compositions import EPS, regularize, star_product, wcomp
from .hopf import context_by_name, f_to_m, m_to_f, verify_hopf
from .morphisms import d1, d2, phi1_f, phi1_m, phi2, verify_square
from .ppartitions import Poset, Series, expand_f, expand_m, gamma

__all__ = [
    "LinComb",
    "lc_mul",
    "tensor",
    "tensor_bilinear",
    "tensor_bimap",
    "quasi_shuffle",
    "shifted_quasi_shuffle",
    "shifted_shuffle",
    "standardize",
    "weak_descent_set",
    "EPS",
    "regularize",
    "star_product",
    "wcomp",
    "f_to_m",
    "m_to_f",
    "context_by_name",
    "verify_hopf",
    "d1",
    "d2",
    "phi1_m",
    "phi1_f",
    "phi2",
    "verify_square",
    "Poset",
    "Series",
    "expand_m",
    "expand_f",
    "gamma",
]
