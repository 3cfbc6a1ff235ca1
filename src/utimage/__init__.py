"""Exact images and preimage witnesses of multilinear polynomials on the
strictly upper triangular matrix algebra.

Each exported name is imported from its submodule on first access, so a
program loads only the submodules it uses.
"""

from . import errors

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "FieldSpec": "fields",
    "ImageClass": "solver",
    "ImageReport": "oracle",
    "MultilinearPoly": "freealg",
    "Permutation": "freealg",
    "StrictUT": "triangular",
    "check_theorem": "oracle",
    "image_description": "solver",
    "parse_poly": "freealg",
    "preimage": "solver",
}

__all__ = ["errors", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value
