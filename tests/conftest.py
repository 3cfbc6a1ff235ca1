import pytest

from utimage import oracle
from utimage.fields import FieldSpec


@pytest.fixture
def rational():
    return FieldSpec.rational()


@pytest.fixture
def gf2():
    return FieldSpec.gf(2)


@pytest.fixture
def gf3():
    return FieldSpec.gf(3)


@pytest.fixture
def gf5():
    return FieldSpec.gf(5)


@pytest.fixture
def row_reduce_calls(monkeypatch):
    """Count the oracle's slice reductions, one per tail the scan visits."""
    calls = []
    row_reduce = oracle._row_reduce

    def counted(vectors, q):
        calls.append(None)
        return row_reduce(vectors, q)

    monkeypatch.setattr(oracle, "_row_reduce", counted)
    return calls


def mat(n, spec, triples):
    """StrictUT from (row, col, int_value) triples."""
    from utimage.triangular import StrictUT

    return StrictUT.from_entries(
        n, spec, [(r, c, spec.scalar(v)) for r, c, v in triples]
    )
