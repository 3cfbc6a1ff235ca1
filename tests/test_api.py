import utimage


def test_all_is_the_documented_surface():
    # The library surface the README documents; every other name is internal.
    assert sorted(utimage.__all__) == [
        "FieldSpec", "ImageClass", "ImageReport", "MultilinearPoly", "Permutation",
        "Scalar", "StrictUT", "check_theorem", "errors", "image_description",
        "parse_poly", "preimage",
    ]
    for name in utimage.__all__:
        getattr(utimage, name)
