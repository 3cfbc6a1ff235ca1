"""Exact images and preimage witnesses of multilinear polynomials on the
strictly upper triangular matrix algebra."""

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly, Permutation, parse_poly
from .oracle import ImageReport, check_theorem
from .solver import ImageClass, image_description, preimage
from .triangular import StrictUT

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "ImageClass",
    "ImageReport",
    "MultilinearPoly",
    "Permutation",
    "StrictUT",
    "check_theorem",
    "errors",
    "image_description",
    "parse_poly",
    "preimage",
]
