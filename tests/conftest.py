import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from utimage import oracle
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly
from utimage.sampling import random_band_target, random_scalar
from utimage.triangular import StrictUT


def module_imports(module):
    """The names a module's source imports, each as written and joined with
    each imported name, and the package modules it imports relatively."""
    imported = set()
    package = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            imported.add(name)
            imported.update(f"{name}.{alias.name}" for alias in node.names)
            if node.level:
                package.update(
                    [node.module] if node.module else [a.name for a in node.names]
                )
    return imported, package


@pytest.fixture
def rational():
    return FieldSpec()


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


@pytest.fixture
def compile_calls(monkeypatch):
    """Count the oracle's term compiles, which only a scan past the first
    tail makes."""
    calls = []
    compile_terms = oracle._compile_terms

    def counted(f, n, coords):
        calls.append(None)
        return compile_terms(f, n, coords)

    monkeypatch.setattr(oracle, "_compile_terms", counted)
    return calls


@pytest.fixture
def chain_enumerations(monkeypatch):
    """The output entries (p, q) whose chains the oracle enumerates, once
    per enumeration, in order."""
    entries = []
    combinations = itertools.combinations

    def counted(inner, r):
        entries.append((inner.start - 1, inner.stop))
        return combinations(inner, r)

    monkeypatch.setattr(oracle.itertools, "combinations", counted)
    return entries


def mat(n, spec, triples):
    """StrictUT from (row, col, int_value) triples."""
    return StrictUT.from_entries(n, spec, triples)


def shared_denominator(poly):
    """The lcm L of a polynomial's coefficient denominators (1 over GF(p)):
    pivot sums and band rows are numerators over it."""
    return math.lcm(*(c.denominator for c in poly.coeffs.values()))


def triples(matrix):
    """The (row, col, value) triples of a matrix's entries: ``mat`` sums
    duplicate coordinates, so it adds matrices given their triples."""
    return [(row, col, value) for (row, col), value in matrix.entries.items()]


def scaled(matrix, c):
    """The matrix times ``c``, an int or a Fraction of its field."""
    return mat(matrix.n, matrix.spec, [(row, col, value * c) for row, col, value in triples(matrix)])


def inverse(spec, value):
    """The inverse of a nonzero raw value of ``spec``."""
    return Fraction(1, value) if spec.p is None else pow(value, -1, spec.p)


def fixed_arguments(cells, n, spec):
    """The superdiagonal matrices for x_2..x_m that ``witness_scalars``'
    0/1 cell rows describe: cell ``cells[var][slot]`` sits at (slot,
    slot + 1) of the matrix for x_var."""
    return [
        mat(n, spec, [(slot, slot + 1, 1) for slot in range(n) if row[slot]])
        for row in cells[2:]
    ]


def all_matrices(n, q):
    """Every strictly upper triangular n x n matrix over GF(q), in packed
    key order: a product over the digits, most significant first."""
    spec = FieldSpec.gf(q)
    coords = oracle.strict_coords(n)
    return [
        mat(n, spec, [(p, c, d) for (p, c), d in zip(coords, digits) if d])
        for digits in itertools.product(range(q), repeat=len(coords))
    ]


def image_bruteforce(f, n, q, cap=oracle.DEFAULT_CAP, reduce_bands=False):
    """The exact set of values f attains over GF(q), as sorted packed keys:
    the scan's keys, or every key supported on its positions when a slice
    reached full rank."""
    (positions, keys), _ = oracle._image_keys(f, n, q, cap, reduce_bands)
    if keys is None:
        return oracle._supported_keys(positions, n, q)
    return keys


def packed_key(matrix, q):
    """The packed key of a matrix over GF(q): the base-q integer of its
    strictly upper entries, row-major, most significant first."""
    key = 0
    for p, c in oracle.strict_coords(matrix.n):
        key = key * q + matrix.get(p, c)
    return key


def random_strict_ut(rng, spec, n):
    return random_band_target(rng, spec, n, 1)


def random_pivot_coeffs(rng, spec, m, force_swap23=False):
    """Coefficients supported on permutations fixing 1, with identity
    coefficient one; optionally force a nonzero coefficient at the swap of
    positions 2 and 3."""
    identity = tuple(range(1, m + 1))
    coeffs = {identity: spec.element(1)}
    for images in itertools.permutations(identity):
        if images[0] != 1 or images == identity:
            continue
        if rng.random() < 0.5:
            coeffs[images] = random_scalar(rng, spec, nonzero=True)
    if force_swap23 and m >= 3:
        coeffs[(1, 3, 2, *identity[3:])] = random_scalar(rng, spec, nonzero=True)
    return MultilinearPoly(m, spec, coeffs)
