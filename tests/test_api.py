import inspect

import utimage
from utimage import selfcheck


def test_all_is_the_documented_surface():
    # The library surface the README documents; every other name is internal.
    assert sorted(utimage.__all__) == [
        "FieldSpec", "ImageClass", "ImageReport", "MultilinearPoly", "Permutation",
        "Scalar", "StrictUT", "check_theorem", "errors", "image_description",
        "parse_poly", "preimage",
    ]
    for name in utimage.__all__:
        getattr(utimage, name)


def test_benchmark_serialization_names_resolve():
    # The benchmark's reference timings and its layer tracer reach these
    # by module and name, and call them with positional arguments.
    for name, params in [
        ("canonical_json", ["doc"]),
        ("witness_document", ["poly_text", "n", "spec", "target", "witness"]),
    ]:
        assert list(inspect.signature(getattr(selfcheck, name)).parameters) == params
