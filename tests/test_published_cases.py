"""Special cases of both families as a third reference, independent of
both the theorem code and the brute-force oracle, at sizes no oracle
reaches.  Every draw is seeded.

Transformations, published: T(6), T(12) and T(50), with |Y| <= 4 so that
S(Y) has at most 256 elements.

- S(Y) = T(Y) gives T(X, Y) = {f : Yf ⊆ Y}.  There f is regular iff
  Xf ∩ Y = Yf, and T(X, Y) is regular iff Y = X or |Y| = 1 (Nenthein,
  Youngkhong & Kemprasit 2005, "Regular elements of some transformation
  semigroups", Pure Math. Appl. 16).
- S(Y) = {id_Y} gives the maps fixing Y pointwise.  S is a group, so every
  f is regular and unit-regular, and every unit-regular witness, checked
  by multiplication (``witness_problem``), must hold.

No regular witness is checked there, as ``thm_element`` gives none yet
for the transformation family.

Linear maps, derived here from first principles, since no exact source
for the linear analogue is at hand; the derivation uses only linear
algebra, not the paper's theorem.  V = GF(2)^12 with dim W <= 3 and V =
GF(101)^4 with dim W <= 1; maps act on row vectors, v -> vf, and every
span, rank and product below is worked out in this file (``rank``,
``times``), not by the package.

- S(W) = L(W) gives L(V, W) = {f : Wf ⊆ W}.  There f is regular iff
  Vf ∩ W = Wf.  If f = fgf with g in L(V, W), then Wf ⊆ Vf ∩ W, and
  y = vf in W is y = vfgf = (yg)f with yg in Wg ⊆ W, so y lies in Wf.
  Conversely, take a basis w_1..w_r of Wf = Vf ∩ W with preimages a_i
  in W, extend it by u_1..u_s to a basis of Vf, with any preimages b_j,
  and by c_1..c_t to a basis of W.  No nonzero combination of the u_j
  lies in W (it would lie in Vf ∩ W, the span of the w_i), so the w_i,
  c_l and u_j are independent and extend to a basis of V.  Let g send
  w_i to a_i, u_j to b_j and every other basis vector to 0: then Wg ⊆ W,
  and fgf = f, since g then f fixes each w_i and u_j, a basis of Vf.  So
  L(V, W) is regular iff W = 0 or W = V: both make it L(V), where Vf ∩ W
  = Wf always; for 0 < W < V, the f sending some v outside W to some w
  != 0 in W and the rest of a basis of V through W's basis to 0 has Vf
  ∩ W = <w> and Wf = 0.  W = V is not drawn, as S(W) would then be all
  of L(V).
- S(W) = {id_W} gives the maps fixing W pointwise, each regular and
  unit-regular.  For such an f, W = Wf lies in Vf: extend W's basis
  w_1..w_k by u_1..u_s to a basis of Vf, with preimages b_j (each w_i is
  its own).  The w_i and b_j are independent, since their images are, so
  an invertible g sends each w_i to itself, each u_j to b_j and the rest
  of a basis of V through the w_i and u_j onto the rest of one through
  the w_i and b_j.  Then g fixes W pointwise, and fgf = f.

The regular witnesses of S(W) = L(W), and both witnesses of S(W) =
{id_W}, are checked by multiplication: each is in the instance, the
unit-regular one invertible, and fwf = f.
"""

import random
from itertools import product

import pytest

from resemi.gflinear import GFMatrix, Subspace
from resemi.linear_semigroup import LInstance
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


# -- the linear half ---------------------------------------------------------

SPACES = ((2, 12, (0, 1, 2, 3)), (101, 4, (0, 1)))  # (p, n, each dim W)
SPACE_IDS = [f"GF({p})^{n}" for p, n, _ in SPACES]
L_REGIONS, L_DRAWS = 10, 10  # W per (p, n, dim W), f per W


def rank(p: int, rows) -> int:
    """The rank of the rows over GF(p), by row reduction."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(r + 1, len(rows)):
            factor = rows[k][c] * pow(rows[r][c], -1, p)
            rows[k] = [(x - factor * y) % p for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def times(p: int, v, f: GFMatrix) -> tuple:
    """The row vector vf."""
    return tuple(sum(a * b for a, b in zip(v, col)) % p for col in zip(*f.entries))


def l_regions(p: int, n: int, k: int, rng: random.Random):
    """``L_REGIONS`` seeded W of dimension k in GF(p)^n, each given by k
    independent seeded rows."""
    for _ in range(L_REGIONS):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        while rank(p, rows) < k:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        yield rows


def l_draw(inst: LInstance, rows, rng: random.Random, fixed: bool) -> GFMatrix:
    """An f with Wf ⊆ W, fixing W pointwise when ``fixed``: its
    restriction's rows are each zero or any with even odds, and each image
    of a vector completing W's basis goes into W or anywhere in V with
    even odds, so that Vf meets W beyond Wf often enough to decide the
    trace.  Made by ``inst.extend``; its membership is checked apart."""
    p, n, k = inst.p, inst.n, len(rows)
    if fixed:
        alpha = GFMatrix.identity(p, k)
    else:
        alpha = GFMatrix(p, [[0] * k if rng.random() < 0.5 else [rng.randrange(p) for _ in range(k)]
                             for _ in range(k)], cols=k)
    images = []
    for _ in range(n - k):
        if rng.random() < 0.5:
            coeffs = [rng.randrange(p) for _ in range(k)]
            images.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n)])
        else:
            images.append([rng.randrange(p) for _ in range(n)])
    return inst.extend(alpha, images)


def regular_by_trace(p: int, rows, f: GFMatrix) -> bool:
    """Vf ∩ W = Wf, for an f with Wf ⊆ W: Wf lies in Vf ∩ W, so the two
    are equal iff dim Wf = dim Vf + dim W - dim(Vf + W)."""
    image = f.entries
    return rank(p, [times(p, w, f) for w in rows]) == \
        rank(p, image) + len(rows) - rank(p, list(image) + rows)


def keeps(p: int, rows, g: GFMatrix, fixed: bool) -> bool:
    """Wg ⊆ W, or g fixes W pointwise when ``fixed``."""
    images = [times(p, r, g) for r in rows]
    return images == [tuple(r) for r in rows] if fixed else rank(p, rows + images) == len(rows)


def witness_holds(p: int, rows, f: GFMatrix, w: GFMatrix, fixed: bool, unit: bool) -> bool:
    """w is in the instance (``keeps``), invertible when ``unit``, and fwf
    = f, all by multiplication."""
    fwf = [times(p, times(p, row, w), f) for row in f.entries]  # row i is e_i fwf
    return (keeps(p, rows, w, fixed) and (not unit or rank(p, w.entries) == w.rows)
            and fwf == list(f.entries))


@pytest.fixture(scope="module")
def full_linear():
    """L(GF(p)^k) for each (p, k) drawn, each tabled once for the module."""
    return {(p, k): FiniteSemigroup(
                [GFMatrix(p, [flat[i * k:(i + 1) * k] for i in range(k)], cols=k)
                 for flat in product(range(p), repeat=k * k)])
            for p, _, dims in SPACES for k in dims}


@pytest.mark.parametrize("p,n,dims", SPACES, ids=SPACE_IDS)
def test_full_linear_semigroup_on_w(full_linear, p, n, dims):
    # S(W) = L(W): f is regular iff Vf ∩ W = Wf, with a regular witness
    # that passes its product check; L(V, W) is regular iff W = 0 or W = V
    rng = random.Random(f"L(V,W):{p}:{n}")
    seen = []  # each criterion's answers, so that both are known to occur
    for k in dims:
        for rows in l_regions(p, n, k, rng):
            inst = LInstance(Subspace(p, n, rows), full_linear[p, k])
            regular = k in (0, n)
            assert inst.thm_semigroup("regular").holds == regular
            seen.append(("semigroup", regular))
            for _ in range(L_DRAWS):
                f = l_draw(inst, rows, rng, fixed=False)
                assert keeps(p, rows, f, fixed=False)
                trace = regular_by_trace(p, rows, f)
                verdict = inst.thm_element(f, "regular")
                assert verdict.holds == trace, f.to_text()
                if trace:
                    assert witness_holds(p, rows, f, verdict.witness, fixed=False, unit=False), \
                        f.to_text()
                seen.append(("element", trace))
    assert len(seen) == len(dims) * L_REGIONS * (L_DRAWS + 1)
    assert set(seen) == {(level, answer) for level in ("semigroup", "element")
                         for answer in (True, False)}


@pytest.mark.parametrize("p,n,dims", SPACES, ids=SPACE_IDS)
def test_identity_on_w(p, n, dims):
    # S(W) = {id_W}: every f fixing W pointwise is regular and unit-regular,
    # with both witnesses passing their product checks
    rng = random.Random(f"id_W:{p}:{n}")
    witnesses = 0
    for k in dims:
        for rows in l_regions(p, n, k, rng):
            inst = LInstance(Subspace(p, n, rows), FiniteSemigroup([GFMatrix.identity(p, k)]))
            for mode in ("regular", "unit_regular"):
                assert inst.thm_semigroup(mode).holds
            for _ in range(L_DRAWS):
                f = l_draw(inst, rows, rng, fixed=True)
                assert keeps(p, rows, f, fixed=True)
                for mode in ("regular", "unit_regular"):
                    verdict = inst.thm_element(f, mode)
                    assert verdict.holds and verdict.witness is not None, (mode, f.to_text())
                    assert witness_holds(p, rows, f, verdict.witness, fixed=True,
                                         unit=mode == "unit_regular"), (mode, f.to_text())
                    witnesses += 1
    assert witnesses == 2 * len(dims) * L_REGIONS * L_DRAWS
