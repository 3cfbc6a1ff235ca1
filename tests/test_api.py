import inspect

import utimage
from utimage import freealg, oracle, selfcheck, solver
from utimage.fields import FieldSpec
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
