"""Exact-arithmetic verification and classification of transposed Poisson
structures on 3-Lie algebras.

Everything computes over exact rationals; every check is an equality, so
there are no tolerances anywhere.

The package loads its submodules on first use (PEP 562): ``import tpl3``
imports none of them, and reading a public name such as ``tpl3.rank``
imports the submodule that defines it.  Every load of a submodule, whether
by such a read, by ``import tpl3.classify`` or by another submodule's
import, puts all the submodule's public names on the package at once.  So
``tpl3.classify`` is the function even though a submodule has that name.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

#: each submodule and the public names the package takes from it
_EXPORTS = {
    "linalg": ("DimensionMismatch", "Matrix", "Singular", "Vector", "fmt_rat", "invert",
               "parse_rat", "rank", "rational_root", "vec_mat"),
    "algebra": ("CheckReport", "CommProduct", "FamilyCoordinates", "ShapeMismatch",
                "TriBracket", "Violation", "a3_bracket", "bracket_eval",
                "check_commutative_associative", "check_fundamental_identity",
                "check_transposed_leibniz", "family_coordinates",
                "remark_associativity_residuals"),
    "derivations": ("DerivationQuery", "DerivationSpace", "ProductSpace",
                    "delta_derivations", "tp_product_space"),
    "morphisms": ("AutoMatrix", "NotAutomorphism", "a3_automorphism_check",
                  "eleven_equation_residuals", "is_bracket_automorphism",
                  "transport_bracket", "transport_product"),
    "families": ("ALL_CASES", "CASE_FAMILY", "FAMILY_IDS", "FAMILY_PARAMS", "CaseId",
                 "FamilyInstance", "detect_case", "instantiate_family"),
    "classify": ("CANONICAL_AUTOMORPHISM", "Certificate", "NeedsExtension",
                 "NotTransposedPoisson", "Unclassified", "Unsupported", "classify",
                 "draw_family_params", "fingerprint", "normalize", "verify_all_cases",
                 "verify_paper_case"),
    "docio": ("AlgebraDocument", "DocumentError", "matrix_payload", "parse_document",
              "parse_matrix", "serialize_document"),
}

#: public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


class _Package(_ModuleType):
    """The package module; the import system binds each submodule it loads
    on the package with ``setattr``, which here also binds the submodule's
    public names, after the submodule itself."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, _ModuleType) and value.__name__ == f"{self.__name__}.{name}":
            for export in _EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


_sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    """A public name or a submodule name not bound yet: load its submodule."""
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import_module(f"{__name__}.{module}")
    return globals()[name]


def __dir__():
    return sorted({*__all__, *(name for name in globals() if name.startswith("__"))})
