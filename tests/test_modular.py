"""Ranks mod p and their exact certificates: the ring maps, agreement with
exact elimination, negative controls for every guard of the certificate,
and the exact fallback on the benchmark grid."""

import hashlib
import json
import math
import os
import random
from functools import lru_cache
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from blobtensor import linalg, specht, towers, weightmod
from blobtensor.cli import main
from blobtensor.linalg import (ModSpan, SpanSolver, _closure, _mat_vec_mod,
                               certified_rank, invariant_closure,
                               left_kernel, mat_vec, span_rank, vec_scale)
from blobtensor.scalars import (GENERIC, BlobParams, ModularMap, _is_prime,
                                context, cyclotomic_field)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIELDS = [cyclotomic_field(5), cyclotomic_field(7), GENERIC]
FIELD_IDS = ["cyc5", "cyc7", "generic"]


def _scalar(field, coeffs, den):
    """sum_k coeffs[k] q^(k-1) / den, an element with a small denominator."""
    acc = field.zero
    for k, c in enumerate(coeffs):
        acc = acc + field.from_int(c) * field.q_pow(k - 1)
    return acc / field.from_int(den)


scalars = st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                    st.integers(1, 4))
families = st.lists(
    st.dictionaries(st.integers(0, 4), scalars, max_size=3),
    min_size=1, max_size=7)


def _family(field, raw):
    out = []
    for entries in raw:
        v = {i: _scalar(field, *c) for i, c in entries.items()}
        out.append({i: x for i, x in v.items() if not x.is_zero()})
    return out


# ---------------------------------------------------------------------------
# the ring maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l", [3, 5, 7, 9, 15])
def test_cyclotomic_prime_and_root(l):
    modular = cyclotomic_field(l).modular
    p = modular.p
    assert sympy.isprime(p) and p % l == 1 and p > 2 ** 31
    assert not any(sympy.isprime(c) for c in range(2 ** 31 + 1, p)
                   if c % l == 1)
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(l, x), x)
    assert phi.eval(modular.q) % p == 0


def _trial_division(n):
    if n < 3 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(10_000) if _is_prime(n)] == \
        [n for n in range(10_000) if _trial_division(n)]
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randrange(2 ** 31 + 1, 2 ** 32, 2)
        assert _is_prime(n) == _trial_division(n), n


def test_miller_rabin_picks_the_same_prime_for_every_odd_l():
    # CyclotomicField.modular takes the first candidate p > 2^31,
    # p = 1 (mod l), that passes _is_prime: the test must agree with trial
    # division on every candidate up to the least prime one
    for l in range(3, 102, 2):
        p = 2 ** 31 + 1
        while True:
            if p % l == 1:
                prime = _trial_division(p)
                assert _is_prime(p) == prime, (l, p)
                if prime:
                    break
            p += 2


def test_miller_rabin_rejects_pseudoprimes_and_its_bound():
    # 3,215,031,751 = 151 * 751 * 28351 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7; 341,550,071,728,321 to every base up to 17
    assert not _trial_division(3_215_031_751)
    assert not _is_prime(3_215_031_751)
    with pytest.raises(ValueError):
        _is_prime(341_550_071_728_321)


def test_generic_map_sends_q_to_a_primitive_root():
    modular = GENERIC.modular
    p, t = modular.p, modular.q
    assert sympy.isprime(p)
    assert all(pow(t, (p - 1) // r, p) != 1
               for r in sympy.factorint(p - 1))


def test_small_integer_family_keeps_its_rank_mod_p():
    # the minor q^-2 (q - 7)/3 of this family vanishes when q goes to 7:
    # a small image of q is a root of small polynomials
    family = [{0: _scalar(GENERIC, [-2, -1], 3), 1: _scalar(GENERIC, [1], 1)},
              {0: _scalar(GENERIC, [3], 1), 1: _scalar(GENERIC, [-1], 1)}]
    assert span_rank(family) == 2
    assert certified_rank(family, [], 2, GENERIC.modular, GENERIC.one) == \
        (2, [])
    seven = ModularMap(GENERIC.modular.p, 7)
    assert certified_rank(family, [], 2, seven, GENERIC.one) is None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(a=scalars, b=scalars)
@settings(max_examples=40, deadline=None)
def test_reduction_is_a_ring_map(field, a, b):
    image, p = field.modular.image, field.modular.p
    x, y = _scalar(field, *a), _scalar(field, *b)
    assert image(x + y) == (image(x) + image(y)) % p
    assert image(x * y) == image(x) * image(y) % p
    assert image(field.q) * image(field.q.inv()) % p == 1


def test_vanishing_denominator_raises():
    field = cyclotomic_field(5)
    modular = field.modular_map(11)
    with pytest.raises(ZeroDivisionError):
        modular.image(field.one / field.from_int(11))
    assert certified_rank([{0: field.one / field.from_int(11)}], [], 1,
                          modular, field.one) is None
    with pytest.raises(ValueError):
        field.modular_map(13)
    # q -> 1 kills the denominator q^2 - 1 of lambda1
    ctx = context(BlobParams(3, 0, 2))
    with pytest.raises(ZeroDivisionError):
        ModularMap(GENERIC.modular.p, 1).image(ctx.lam1)


# ---------------------------------------------------------------------------
# certified ranks agree with exact elimination
# ---------------------------------------------------------------------------

def _dense_rank_mod(rows, p):
    """Textbook Gaussian elimination mod p, the oracle for ModSpan."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r],
                                                          rows[rank])]
        rank += 1
    return rank


@given(rows=st.lists(st.lists(st.integers(-6, 6), min_size=6, max_size=6),
                     min_size=1, max_size=9))
@settings(max_examples=150, deadline=None)
def test_mod_span_rank_matches_dense_elimination(rows):
    # p = 7 makes many entries cancel, so rows often reduce to zero
    span = ModSpan(7)
    grew = [span.insert({j: x % 7 for j, x in enumerate(r) if x % 7}, k)
            for k, r in enumerate(rows)]
    assert span.rank == _dense_rank_mod(rows, 7)
    assert span.tags == [k for k, g in enumerate(grew) if g]
    # a row is accepted exactly when it is independent of those before it
    for k, g in enumerate(grew):
        assert g == (_dense_rank_mod(rows[:k + 1], 7)
                     > _dense_rank_mod(rows[:k], 7))


class _EchelonSpan:
    """Plain row echelon mod p, always pivoting on the smallest index: the
    reference for ModSpan's pivot choice."""

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot -> full row, pivot coefficient 1
        self.tags = []

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, vec, tag=None):
        p = self.p
        red = {j: x % p for j, x in vec.items() if x % p}
        for piv in sorted(self.rows):
            c = red.get(piv)
            if c:
                for j, x in self.rows[piv].items():
                    red[j] = (red.get(j, 0) - c * x) % p
                red = {j: x for j, x in red.items() if x}
        if not red:
            return False
        piv = min(red)
        inv = pow(red[piv], -1, p)
        self.rows[piv] = {j: x * inv % p for j, x in red.items()}
        self.tags.append(tag)
        return True


sparse_families = st.lists(
    st.dictionaries(st.integers(0, 11), st.integers(1, 6), min_size=1,
                    max_size=3), min_size=1, max_size=14)


class _CheckedSpan(ModSpan):
    """A ModSpan that checks itself after every insert: the rank grows
    exactly when the insert says so, no row has an entry in another row's
    pivot column, and the column index names exactly the rows with an entry
    in each column."""

    def insert(self, vec, tag=None):
        rank = self.rank
        grew = super().insert(vec, tag)
        assert self.rank == rank + grew
        occupied = {}
        for piv, row in self.rows.items():
            assert not set(row) & set(self.rows)
            for j in row:
                occupied.setdefault(j, set()).add(piv)
        assert {j: r for j, r in self.cols.items() if r} == occupied
        return grew


@pytest.mark.parametrize("p", [7, 101])
@given(family=sparse_families, gens=st.lists(sparse_families, max_size=2))
@settings(max_examples=150, deadline=None)
def test_markowitz_pivots_keep_ranks_and_tags(p, family, gens):
    # the family inserted in order, then the closure of its first vectors
    # under sparse matrices: acceptance, rank and tags match the
    # smallest-index echelon whatever the pivots
    span, ref = _CheckedSpan(p), _EchelonSpan(p)
    for k, v in enumerate(family):
        v = {j: x % p for j, x in v.items()}
        assert span.insert(v, k) == ref.insert(v, k)
    assert (span.rank, span.tags) == (ref.rank, ref.tags)
    mats = [[{j: x % p for j, x in col.items()} for col in
             (g + [{}] * 12)[:12]] for g in gens]
    seeds = [{j: x % p for j, x in v.items()} for v in family[:3]]
    apply = lambda m, v: _mat_vec_mod(m, v, p)  # noqa: E731
    closed = _closure(_CheckedSpan(p), seeds, mats, apply)
    expect = _closure(_EchelonSpan(p), seeds, mats, apply)
    assert (closed.rank, closed.tags) == (expect.rank, expect.tags)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(raw=families)
@settings(max_examples=60, deadline=None)
def test_certified_rank_equals_exact_rank(field, raw):
    family = _family(field, raw)
    exact = span_rank(family)
    mod = ModSpan(field.modular.p)
    for v in family:
        mod.insert(field.modular.vec(v))
    assert mod.rank <= exact
    found = certified_rank(family, [], 5, field.modular, field.one)
    assert found is not None and found[0] == exact
    assert len(found[1]) == 5 - exact


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(raw=families, gens=st.lists(families, min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_certified_closure_rank_equals_exact_rank(field, raw, gens):
    seeds = _family(field, raw)
    matrices = []
    for cols in gens:
        cols = _family(field, cols)
        matrices.append((cols + [{}] * 5)[:5])
    exact = invariant_closure(seeds, matrices).rank
    assert certified_rank(seeds, matrices, 5, field.modular,
                          field.one)[0] == exact


def test_small_prime_rank_is_only_a_lower_bound():
    field = cyclotomic_field(5)
    eleven = field.modular_map(11)
    family = [{0: field.one, 1: field.from_int(12)},
              {0: field.one, 1: field.one}]
    mod = ModSpan(11)
    for v in family:
        mod.insert(eleven.vec(v))
    assert mod.rank == 1 and span_rank(family) == 2
    # the kernel of the one accepted vector misses the other
    assert certified_rank(family, [], 2, eleven, field.one) is None
    assert certified_rank(family, [], 2, field.modular, field.one) == (2, [])


# ---------------------------------------------------------------------------
# negative controls: each guard of the certificate rejects a wrong input
# ---------------------------------------------------------------------------

C5 = context(BlobParams(5, 5, 2))


def _codim_one_point():
    """n = 5, lambda = 1, l = 5, m = 2: n2 = m, so the image has codim 1."""
    module = weightmod.weight_module(5, 1, C5)
    family, seeds = weightmod._image_family(module)
    return module, family, seeds


def test_codim_one_point_is_certified():
    module, family, seeds = _codim_one_point()
    found = certified_rank(family, [], module.dim, C5.field.modular, C5.one)
    assert found is not None
    rank, ys = found
    assert rank == module.dim - 1 == span_rank(family) and len(ys) == 1
    assert certified_rank(seeds, module.U, module.dim, C5.field.modular,
                          C5.one, ys) == (rank, ys)


def test_forged_annihilator_is_rejected(monkeypatch):
    module, family, seeds = _codim_one_point()
    (y,) = left_kernel(family, module.dim, C5.one)
    # one extra unit where the first family vector lives: y misses it
    i = min(family[0])
    forged = dict(y)
    forged[i] = forged.get(i, C5.zero) + C5.one
    monkeypatch.setattr("blobtensor.linalg.left_kernel",
                        lambda vectors, dim, one: [forged])
    assert certified_rank(family, [], module.dim, C5.field.modular,
                          C5.one) is None


def test_forged_closure_annihilator_is_rejected():
    module, family, seeds = _codim_one_point()
    (y,) = left_kernel(family, module.dim, C5.one)
    # still kills every seed, but U no longer keeps span(y)
    outside = set(range(module.dim)) - {i for s in seeds for i in s}
    forged = dict(y)
    forged[min(outside)] = forged.get(min(outside), C5.zero) + C5.one
    assert certified_rank(seeds, module.U, module.dim, C5.field.modular,
                          C5.one, [forged]) is None


def test_closure_certificate_needs_every_seed_and_the_dimension():
    field = cyclotomic_field(5)
    one = field.one
    identity = [{0: one}, {1: one}]
    # the closure of e_0 under the identity is span(e_0), of rank 1
    assert certified_rank([{0: one}], [identity], 2, field.modular,
                          one)[0] == 1
    # y = e_0 is invariant but does not kill the seed
    assert certified_rank([{0: one}], [identity], 2, field.modular,
                          one, [{0: one}]) is None
    # no annihilator at all proves nothing below full rank
    assert certified_rank([{0: one}], [identity], 2, field.modular,
                          one, []) is None


def test_dependent_annihilator_proves_nothing():
    # y = e_2 twice kills the seed and is invariant, but its span has
    # dimension 1, not 2: the closure span(e_0, e_1) has rank 2, not 1
    field = cyclotomic_field(5)
    one = field.one
    shift = [{1: one}, {}, {}]
    assert invariant_closure([{0: one}], [shift]).rank == 2
    assert certified_rank([{0: one}], [shift], 3, field.modular, one,
                          [{2: one}, {2: one}]) is None
    assert certified_rank([{0: one}], [shift], 3, field.modular, one,
                          [{2: one}]) == (2, [{2: one}])


def test_dual_rank_drop_mod_p_falls_back(monkeypatch):
    params = BlobParams(5, 0, 2)
    exact = specht.dual_adjointness_check(5, 1, params)
    calls = []
    real = specht.invariant_closure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specht, "invariant_closure", counted)
    # q -> 4 = -1 in F_5 is a ring map under which the dual closure's rank
    # drops, so its certificate fails and the exact elimination decides
    monkeypatch.setattr(GENERIC, "modular", ModularMap(5, 4))
    assert specht.dual_adjointness_check(5, 1, params) == exact
    assert len(calls) == 1


def test_vanishing_residue_of_a_generator_returns_none():
    # the stored residues are read inside the guard: a denominator that
    # vanishes there proves nothing, and the caller decides exactly
    field = cyclotomic_field(5)
    one = field.one
    shift = [{1: one}, {}]

    def vanishing():
        raise ZeroDivisionError("denominator vanishes")

    assert certified_rank([{0: one}], [shift], 2, field.modular, one,
                          residues=vanishing) is None
    assert certified_rank([{0: one}], [shift], 2, field.modular, one,
                          residues=lambda: [field.modular.mat(shift)]) == \
        (2, [])


def test_perturbation_invisible_mod_p_changes_the_rank(monkeypatch):
    module, family, seeds = _codim_one_point()
    p = C5.field.modular.p
    _, (y,) = certified_rank(family, [], module.dim, C5.field.modular,
                             C5.one)
    # add p e_i to the first I2 vector, with y_i != 0: the residues stay
    # the same, the exact vector leaves y's kernel
    i = min(y)
    perturbed = [dict(v) for v in family]
    perturbed[0][i] = perturbed[0].get(i, C5.zero) + C5.field.from_int(p)
    assert [C5.field.modular.vec(v) for v in perturbed] == \
        [C5.field.modular.vec(v) for v in family]
    assert span_rank(perturbed) == module.dim
    assert certified_rank(perturbed, [], module.dim, C5.field.modular,
                          C5.one) is None
    monkeypatch.setattr(weightmod, "_image_family",
                        lambda module: (perturbed, seeds))
    result = weightmod._adjointness_surjective(5, 1, C5)
    assert result.rank_span == module.dim


# ---------------------------------------------------------------------------
# the exact fallback on the benchmark grid
# ---------------------------------------------------------------------------

def test_exact_fallback_compares_the_spans():
    module, family, seeds = _codim_one_point()
    assert weightmod._exact_surjective(module, family, seeds) == \
        (module.dim - 1, module.dim - 1, True)
    # same rank as the closure, but a coordinate hyperplane, not the image
    (y,) = left_kernel(family, module.dim, C5.one)
    i = max(y)
    plane = [{j: C5.one} for j in range(module.dim) if j != i]
    assert span_rank(plane) == module.dim - 1
    assert weightmod._exact_surjective(module, plane, seeds) == \
        (module.dim - 1, module.dim - 1, False)


def _adjoint_cyc_reports(tmp_path):
    """Run the adjoint-cyc workload for every m of its pool; check each
    report against the benchmark's pinned digest."""
    spec = json.loads((PERFBENCH / "workloads.json").read_text())
    pins = json.loads((PERFBENCH / "digests.json").read_text())
    out = tmp_path / "report.json"
    for m in spec["adjoint-cyc"]["m_pool"]:
        (command,) = spec["adjoint-cyc"]["commands"]
        argv = [a.replace("{m}", str(m)) for a in command]
        (pin,) = pins["adjoint-cyc"][str(m)]
        assert argv == pin["argv"]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin["sha256"]


def test_benchmark_grid_needs_no_fallback(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("exact fallback taken")

    monkeypatch.setattr(weightmod, "invariant_closure", refuse)
    monkeypatch.setattr(specht, "invariant_closure", refuse)
    _adjoint_cyc_reports(tmp_path)


def test_generators_are_reduced_once_per_module(tmp_path, monkeypatch):
    # the primal and the dual closure of a point read the residues of its
    # weight module (the dual transposes U_0's), and the swapped route those
    # of its own module: no other matrix is reduced, and no module's
    # generators more than once.  Each m runs on fresh caches, as each
    # benchmark call runs in a fresh process
    spec = json.loads((PERFBENCH / "workloads.json").read_text())
    (command,) = spec["adjoint-cyc"]["commands"]
    real = ModularMap.mat
    for m in spec["adjoint-cyc"]["m_pool"]:
        modules, reduced = [], []

        def build(*key):
            modules.append(weightmod.WeightModule(*key))
            return modules[-1]

        def mat(self, cols):
            reduced.append(cols)
            return real(self, cols)

        fresh = lru_cache(maxsize=None)(build)
        for home in (weightmod, specht, towers):
            monkeypatch.setattr(home, "weight_module", fresh)
        monkeypatch.setattr(ModularMap, "mat", mat)
        argv = [a.replace("{m}", str(m)) for a in command]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
        generators = {id(u) for module in modules for u in module.U}
        assert reduced and all(id(cols) in generators for cols in reduced)
        assert len(reduced) <= sum(len(module.U) for module in modules)


def _counted(calls, real):
    def wrapper(*args):
        calls.append(real)
        return real(*args)
    return wrapper


def test_small_primes_give_the_same_reports(tmp_path, monkeypatch):
    # the least primes = 1 (mod l): every rank they read is certified or
    # decided exactly
    for l, p in ((5, 11), (7, 29)):
        field = cyclotomic_field(l)
        monkeypatch.setattr(field, "modular", field.modular_map(p))
    _adjoint_cyc_reports(tmp_path)


def test_fallback_gives_the_same_reports(tmp_path, monkeypatch):
    # no prime = 1 (mod l) below 400 changes a rank on this grid, so a map
    # under which every denominator vanishes sends every point to the exact
    # elimination
    def vanishing(x):
        raise ZeroDivisionError(f"denominator of {x!r} vanishes")

    calls = []
    for module in (weightmod, specht):
        monkeypatch.setattr(module, "invariant_closure",
                            _counted(calls, module.invariant_closure))
    for l in (5, 7):
        modular = cyclotomic_field(l).modular_map(29 if l == 7 else 11)
        modular.image = vanishing
        monkeypatch.setattr(cyclotomic_field(l), "modular", modular)
    _adjoint_cyc_reports(tmp_path)
    # every primal, swapped and dual closure: 40 points per m
    assert len(calls) == 3 * 40 * 3


# ---------------------------------------------------------------------------
# the counit closures grown along the generators' path
# ---------------------------------------------------------------------------

def _path_calls(monkeypatch, argv):
    """Run a CLI command with the certified_rank of weightmod and specht
    replayed: every call that grows its closure along the generators' path
    is made again without the rule and must give the same (rank, Y), never
    None.  Returns (seeds, matrices, seed_generator) of those calls."""
    calls = []

    def replay(real):
        def wrapper(*args, **kwargs):
            found = real(*args, **kwargs)
            j = kwargs.get("seed_generator")
            if j is not None:
                full = real(*args, **dict(kwargs, seed_generator=None))
                assert found is not None and found == full, args[:3]
                calls.append((args[0], args[1], j))
            return found
        return wrapper

    for home in (weightmod, specht):
        monkeypatch.setattr(home, "certified_rank",
                            replay(home.certified_rank))
    assert main(argv + ["--out", os.devnull]) == 0
    return calls


@pytest.mark.parametrize("l", [0, 5, 7])
def test_path_seeds_span_the_image_of_their_generator(l, monkeypatch):
    # the primal and the dual seeds, the basis of eM, are -[2]
    # eigenvectors of U_{n-1} (of the module and of its dual), linearly
    # independent, and span its image
    ctx = context(BlobParams(3, l, 2))
    minus_two = -(ctx.q + ctx.qinv)
    calls = _path_calls(monkeypatch, ["adjointness", "--n", "3..8",
                                      "--l", str(l), "--m", "2"])
    assert calls
    for seeds, matrices, j in calls:
        assert j == len(matrices) - 1
        u = matrices[j]
        assert all(mat_vec(u, s) == vec_scale(s, minus_two) for s in seeds)
        assert span_rank(seeds) == len(seeds) == span_rank(u)


def test_path_rule_gives_the_unpruned_certificates(monkeypatch):
    calls = _path_calls(monkeypatch, [
        "adjointness", "--n", "3..8", "--l", "0,3,5,7",
        "--m", "-2,-1,0,1,2,3,4"])
    # a primal, a swapped and a dual closure at each of the 459 points
    assert len(calls) == 3 * 459


def test_path_rule_shortfall_falls_back():
    # U_1 alone moves e_0, and the rule never applies it to a seed made
    # by U_1: the pruned closure stops short, and the certificate, which
    # reads every matrix, turns its Y down
    field = cyclotomic_field(5)
    one = field.one
    zero, shift = [{}, {}], [{1: one}, {}]
    gens = [zero, shift, zero]
    assert _closure(SpanSolver(), [{0: one}], gens, mat_vec,
                    seed_generator=1).rank == 1
    assert invariant_closure([{0: one}], gens).rank == 2
    assert certified_rank([{0: one}], gens, 2, field.modular, one,
                          seed_generator=1) is None
    assert certified_rank([{0: one}], gens, 2, field.modular, one) == \
        (2, [])


def test_span_of_seeds_stops_at_full_rank(monkeypatch):
    # with no matrices the seeds stop once they span the space; a caller's
    # Y (here a forged one) does not stop them earlier
    field = cyclotomic_field(5)
    one = field.one
    inserted = []
    real = ModSpan.insert

    def insert(self, vec, tag=None):
        inserted.append(tag)
        return real(self, vec, tag)

    monkeypatch.setattr(ModSpan, "insert", insert)
    plane = [{0: one}, {1: one}, {0: one, 1: one}]
    assert certified_rank(plane, [], 2, field.modular, one) == (2, [])
    assert inserted == [(None, 0), (None, 1)]
    assert certified_rank(plane, [], 2, field.modular, one,
                          [{0: one}]) == (2, [])


def test_counit_sweep_insert_and_product_counts(monkeypatch):
    # the path rule leaves every accepted insert of the adjoint-cyc m = 2
    # command in place and cuts the closure products from 7,673; the seeds
    # of a closure under generators, the basis of eM, are independent
    spec = json.loads((PERFBENCH / "workloads.json").read_text())
    (command,) = spec["adjoint-cyc"]["commands"]
    accepted, products, closures, rejected_seeds = [], [], [], []
    real_insert, real_product = ModSpan.insert, linalg._mat_vec_mod
    real_closure = linalg._closure

    def closure(span, seeds, matrices, *args):
        closures.append(bool(matrices))
        return real_closure(span, seeds, matrices, *args)

    def insert(self, vec, tag=None):
        grew = real_insert(self, vec, tag)
        accepted.append(grew)
        if not grew and tag[0] is None and closures[-1]:
            rejected_seeds.append(tag)
        return grew

    def product(*args):
        products.append(None)
        return real_product(*args)

    monkeypatch.setattr(ModSpan, "insert", insert)
    monkeypatch.setattr(linalg, "_mat_vec_mod", product)
    monkeypatch.setattr(linalg, "_closure", closure)
    argv = [a.replace("{m}", "2") for a in command]
    assert main(argv + ["--out", os.devnull]) == 0
    assert sum(accepted) == 2342
    assert len(accepted) - sum(accepted) <= 1550
    assert rejected_seeds == []
    assert len(products) <= 2200


@pytest.mark.parametrize("l, digest", [
    (0, "f3a0f940d46d9dc3f0cb00a3598c02c778fc6265c03d10fa42752601a826a4d1"),
    (5, "971ec1ac20f017f6bbd8c1f6054fac4629b0d003f021858e480f59ddd4b4dae3"),
], ids=["generic", "cyc5"])
def test_ladder_point_needs_no_fallback(l, digest, tmp_path, monkeypatch):
    # grown from eM, each primal closure's echelon stores at most 2 dim
    # entries, pivots included (2,662 at dim 210 when it grew from U_1)
    def refuse(*args):
        raise AssertionError("exact fallback taken")

    real_rank, real_insert = weightmod.certified_rank, ModSpan.insert
    peaks, growing = [], []     # [dim, peak] of each primal closure

    def rank(seeds, matrices, dim, *args, **kwargs):
        growing.append(bool(matrices))
        if matrices:
            peaks.append([dim, 0])
        try:
            return real_rank(seeds, matrices, dim, *args, **kwargs)
        finally:
            growing.pop()

    def insert(self, vec, tag=None):
        grew = real_insert(self, vec, tag)
        if growing and growing[-1]:
            stored = len(self.rows) + sum(map(len, self.rows.values()))
            peaks[-1][1] = max(peaks[-1][1], stored)
        return grew

    monkeypatch.setattr(weightmod, "invariant_closure", refuse)
    monkeypatch.setattr(specht, "invariant_closure", refuse)
    monkeypatch.setattr(weightmod, "certified_rank", rank)
    monkeypatch.setattr(ModSpan, "insert", insert)
    out = tmp_path / "report.json"
    assert main(["adjointness", "--n", "10", "--l", str(l), "--m", "2",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert peaks and all(peak <= 2 * dim for dim, peak in peaks)

