import inspect

import pytest

import utimage
from utimage import freealg, oracle, selfcheck, solver
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly, Permutation
from utimage.triangular import StrictUT


def test_all_is_the_documented_surface():
    # The library surface the README documents; every other name is internal.
    assert sorted(utimage.__all__) == [
        "FieldSpec", "ImageClass", "ImageReport", "MultilinearPoly", "Permutation",
        "StrictUT", "check_theorem", "errors", "image_description", "parse_poly",
        "preimage",
    ]
    for name in utimage.__all__:
        getattr(utimage, name)


def public_attributes(cls):
    """The public names a class body defines: every name without a leading
    underscore, and every dunder method."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") or (name.endswith("__") and callable(value))
    )


# Each class's public attributes as the README's "Library" section lists
# them; an addition or removal must update it.
DOCUMENTED = {
    StrictUT: "n spec entries from_entries from_json_dict to_json_dict get is_zero "
              "band_member __init__ __eq__ __repr__",
    MultilinearPoly: "m spec coeffs is_zero evaluate normalize to_text __init__ __eq__ __repr__",
    Permutation: "inverse __call__ __repr__",
    FieldSpec: "p gf from_text to_text zero parts element canonical values parse "
               "reduce __str__ "
               "__init__ __eq__ __hash__ __repr__ __setattr__ __delattr__ __reduce__",
}


@pytest.mark.parametrize("cls", list(DOCUMENTED), ids=lambda cls: cls.__name__)
def test_classes_expose_the_documented_attributes(cls):
    assert public_attributes(cls) == sorted(DOCUMENTED[cls].split())


def test_benchmark_serialization_names_resolve():
    # The benchmark's reference timings and its layer tracer reach these
    # by module and name, and call them with their leading parameters
    # (the keyword ones named here).
    for owner, name, params in [
        (selfcheck, "canonical_json", ["doc"]),
        (selfcheck, "witness_document", ["poly_text", "n", "spec", "target", "witness"]),
        (FieldSpec, "gf", ["p"]),
        (freealg, "parse_poly", ["text", "spec"]),
        (StrictUT, "from_json_dict", ["doc"]),
        (solver, "preimage", ["f", "n", "target"]),
        (oracle, "check_theorem", ["f", "n", "q", "cap", "reduce_bands"]),
    ]:
        found = list(inspect.signature(getattr(owner, name)).parameters)
        assert found[: len(params)] == params, (name, found)
    # The counting pass reads ``sigma(1)`` off every key of the polynomial
    # that ``witness_scalars`` receives, so parsed and normalized keys stay
    # callable Permutations.
    f = freealg.parse_poly("x2*x1*x3 + 2*x1*x3*x2", FieldSpec.gf(5))
    for poly in (f, f.normalize().core):
        assert all(isinstance(sigma, Permutation) for sigma in poly.coeffs)
        assert [sigma(1) for sigma in poly.coeffs] == [sigma[0] for sigma in poly.coeffs]
