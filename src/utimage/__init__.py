"""Exact images and preimage witnesses of multilinear polynomials on the
strictly upper triangular matrix algebra."""

from . import errors
from .fields import FieldSpec, Scalar
from .freealg import MultilinearPoly, NormalizedPoly, Permutation, parse_poly, symmetric_group
from .oracle import ImageReport, PackedMatrix, check_theorem, enumerate_strict_ut, image_bruteforce
from .solver import BandSystem, ImageClass, WitnessTuple, band_system, image_description, preimage, solve_band
from .triangular import StrictUT, band_decompose
from .witness import AssignmentTable, PivotValues, eval_pivot, witness_scalars

__version__ = "0.1.0"

__all__ = [
    "AssignmentTable",
    "BandSystem",
    "FieldSpec",
    "ImageClass",
    "ImageReport",
    "MultilinearPoly",
    "NormalizedPoly",
    "PackedMatrix",
    "Permutation",
    "PivotValues",
    "Scalar",
    "StrictUT",
    "WitnessTuple",
    "band_decompose",
    "band_system",
    "check_theorem",
    "enumerate_strict_ut",
    "errors",
    "eval_pivot",
    "image_bruteforce",
    "image_description",
    "parse_poly",
    "preimage",
    "solve_band",
    "symmetric_group",
    "witness_scalars",
]
