"""Hopf algebras of signed permutations, quasi-symmetric and weak
quasi-symmetric functions, with exact rational arithmetic and exhaustive
verification of the identities relating them.  A public name is imported
from its module on first access (PEP 562), so the package imports none."""

import importlib

_PUBLIC = {
    "lincomb": "LinComb lc_mul tensor tensor_bilinear tensor_bimap",
    "words": "quasi_shuffle shifted_quasi_shuffle shifted_shuffle standardize weak_descent_set",
    "compositions": "EPS regularize star_product wcomp",
    "hopf": "f_to_m m_to_f context_by_name verify_hopf",
    "morphisms": "d1 d2 phi1_m phi1_f phi2 verify_square",
    "ppartitions": "Poset Series expand_m expand_f gamma",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):  # read off the module at each access, as a tracer may replace it
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
