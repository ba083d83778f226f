"""Ranks mod p and their exact certificates: the ring maps, agreement with
exact elimination, negative controls for every guard of the certificate,
and the exact fallback on the benchmark grid."""

import hashlib
import json
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from blobtensor import specht, weightmod
from blobtensor.cli import main
from blobtensor.linalg import (ModSpan, certified_rank, invariant_closure,
                               left_kernel, span_rank)
from blobtensor.scalars import (GENERIC, BlobParams, ModularMap, context,
                                cyclotomic_field)

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


def test_generic_map_sends_q_to_a_primitive_root():
    modular = GENERIC.modular
    p, t = modular.p, modular.q
    assert sympy.isprime(p)
    assert all(pow(t, (p - 1) // r, p) != 1
               for r in sympy.factorint(p - 1))


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


def test_vanishing_denominator_falls_back(monkeypatch):
    params = BlobParams(5, 0, 2)
    exact = specht.dual_adjointness_check(5, 1, params)
    calls = []
    real = specht.invariant_closure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(specht, "invariant_closure", counted)
    # q -> 5 in F_13 is a ring map with 5^2 = -1, so the seeds of the dual
    # closure, columns of -U_{n-1}/[2], have denominators q^2 + 1 that
    # vanish
    monkeypatch.setattr(GENERIC, "modular", ModularMap(13, 5))
    assert specht.dual_adjointness_check(5, 1, params) == exact
    assert len(calls) == 1


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
