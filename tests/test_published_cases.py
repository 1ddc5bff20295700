"""Published special cases of T_S(Y)(X) as a third reference, independent
of both the theorem code and the brute-force oracle, at sizes no oracle
reaches: T(6), T(12) and T(50), with |Y| <= 4 so that S(Y) has at most
256 elements.

- S(Y) = T(Y) gives T(X, Y) = {f : Yf ⊆ Y}.  There f is regular iff
  Xf ∩ Y = Yf, and T(X, Y) is regular iff Y = X or |Y| = 1 (Nenthein,
  Youngkhong & Kemprasit 2005, "Regular elements of some transformation
  semigroups", Pure Math. Appl. 16).
- S(Y) = {id_Y} gives the maps fixing Y pointwise.  S is a group, so every
  f is regular and unit-regular, and every unit-regular witness, checked
  by multiplication (``witness_problem``), must hold.

Every draw is seeded; no regular witness is checked, as ``thm_element``
gives none yet for the transformation family.
"""

import random
from itertools import product

import pytest

from resemi.semigroups import FiniteSemigroup
from resemi.transform_semigroup import TInstance
from resemi.transformations import IndexSubset, Transformation

SIZES = (6, 12, 50)
REGIONS, DRAWS = 100, 20  # Y per ambient size, f per Y


@pytest.fixture(scope="module")
def full():
    """T(k) for k = 1..4, each tabled once for the module."""
    return {k: FiniteSemigroup([Transformation(t) for t in product(range(k), repeat=k)])
            for k in range(1, 5)}


def regions(n: int, rng: random.Random):
    """``REGIONS`` seeded Y in X = {0, ..., n-1}, with 1 <= |Y| <= 4."""
    for _ in range(REGIONS):
        yield IndexSubset(n, sorted(rng.sample(range(n), rng.randint(1, 4))))


def draw(y: IndexSubset, rng: random.Random, fixed: bool) -> Transformation:
    """An f with Yf ⊆ Y, fixing Y pointwise when ``fixed``: each point
    outside Y goes into Y or anywhere in X with even odds, so that at
    T(50) the image of X \\ Y meets Y often enough to decide the trace."""
    members = y.members
    images = []
    for x in range(y.n):
        if x in y:
            images.append(x if fixed else rng.choice(members))
        else:
            images.append(rng.choice(members) if rng.random() < 0.5 else rng.randrange(y.n))
    return Transformation(images)


@pytest.mark.parametrize("n", SIZES)
def test_full_transformation_semigroup_on_y(full, n):
    # S(Y) = T(Y): f is regular iff Xf ∩ Y = Yf; T(X, Y) is regular iff
    # Y = X or |Y| = 1
    rng = random.Random(f"T(X,Y):{n}")
    seen = []  # each criterion's answers, so that both are known to occur
    for y in regions(n, rng):
        inst = TInstance(y, full[len(y)])
        regular = len(y) in (n, 1)
        assert inst.thm_semigroup("regular").holds == regular
        seen.append(("semigroup", regular))
        for _ in range(DRAWS):
            f = draw(y, rng, fixed=False)
            trace = set(f.map) & set(y.members) == {f.map[x] for x in y.members}
            assert inst.thm_element(f, "regular").holds == trace, f.to_text()
            seen.append(("element", trace))
    assert len(seen) == REGIONS * (DRAWS + 1)
    assert set(seen) == {(level, answer) for level in ("semigroup", "element")
                         for answer in (True, False)}


@pytest.mark.parametrize("n", SIZES)
def test_identity_on_y(n):
    # S(Y) = {id_Y}: every f fixing Y pointwise is regular and unit-regular,
    # with a unit-regular witness that passes its product check
    rng = random.Random(f"id_Y:{n}")
    witnesses = 0
    for y in regions(n, rng):
        inst = TInstance(y, FiniteSemigroup([Transformation.identity(len(y))]))
        for mode in ("regular", "unit_regular"):
            assert inst.thm_semigroup(mode).holds
        for _ in range(DRAWS):
            f = draw(y, rng, fixed=True)
            assert inst.thm_element(f, "regular").holds, f.to_text()
            verdict = inst.thm_element(f, "unit_regular")
            assert verdict.holds and verdict.witness is not None, f.to_text()
            assert inst.witness_problem(f, verdict.witness, "unit_regular") is None, f.to_text()
            witnesses += 1
    assert witnesses == REGIONS * DRAWS
