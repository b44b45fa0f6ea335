import cmath
import math
import warnings

import numpy as np
import pytest

from conegap import core2x2
from conegap.cone import (
    _gauges,
    _pair_index,
    alpha,
    beta,
    distance,
    hilbert_distance,
    member_closed,
    preorder_geq,
    preorder_sample_check,
    random_member,
)
from conegap.core2x2 import DEFAULT_TOL, Complex2x2, Phi, phi
from conegap.variational import bounds_at


def cvec(*entries):
    return np.array(entries, dtype=complex)


def member_open(x, tol=DEFAULT_TOL):
    # strict membership: every Re(x_i conj(x_j)) > tol * ||x||^2
    v = np.asarray(x, dtype=complex)
    s = float(np.vdot(v, v).real)
    return s > 0.0 and float(np.outer(v, v.conj()).real.min()) > tol * s


def test_member_closed_examples():
    assert member_closed(cvec(1, 1j))  # Re(1 * conj(i)) = 0, boundary
    assert not member_closed(cvec(1, -1))
    assert member_closed(cvec(2 + 1j, 2 - 1j))  # Re = 3


def test_membership_is_scale_free():
    x = cvec(2 + 1j, 2 - 1j)
    assert member_closed(1e8 * x) and member_closed(1e-8 * x)
    # a global phase never changes membership
    assert member_closed(1j * x) and member_open(1j * x)


def test_membership_at_extreme_scales_matches_unscaled(rng):
    # the Gram products of 1e160 x overflow a double and those of 1e-160 x
    # underflow; membership is scale-invariant and must not see either
    vectors = [cvec(2 + 1j, 2 - 1j), cvec(1, 1j), cvec(1, -1), cvec(0, 0)]
    for _ in range(100):
        n = int(rng.integers(1, 8))
        vectors.append(random_member(rng, n))
        vectors.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in vectors:
            want = member_closed(v)
            # powers of two scale every product exactly
            for s in (2.0 ** 530, 2.0 ** -530, 2.0 ** 1000, 2.0 ** -1000):
                assert member_closed(s * v) == want
        for v in vectors[:4]:
            assert member_closed(1e160 * v) == member_closed(1e-160 * v) == member_closed(v)


def test_membership_of_subnormal_vectors():
    # lifting a largest part below 2^-1024 to near 1 takes a power of two
    # beyond the double range; membership must still answer, scale-free
    tiny = [cvec(5e-324, 0), cvec(1e-310, 1e-310), cvec(1e-310, -1e-310), cvec(3e-320, 1e-315j),
            cvec(2e-310 + 1e-311j, 5e-324, 1e-309)]
    assert member_closed(tiny[0]) and member_closed(tiny[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in tiny:
            want = member_closed(v)
            # scaling up from the subnormal range is exact
            for k in (1, 52, 600, 1023):
                assert member_closed(v * 2.0 ** k) == want
            assert member_closed(v * 2.0 ** 1023 * 2.0 ** 500) == want
    assert not member_closed(tiny[2])


def test_membership_rejects_bad_input():
    with pytest.raises(ValueError):
        member_closed(cvec(1, complex(float("nan"), 0)))


def test_beta_examples():
    assert beta(cvec(1, 2), cvec(2, 1)) == pytest.approx(2.0, abs=1e-15)
    x = cvec(3, 1 + 1j)
    assert beta(x, x) == pytest.approx(1.0, abs=1e-12)
    assert beta(cvec(1, 1), cvec(1, 0)) == math.inf


def test_alpha_examples():
    assert alpha(cvec(1, 2), cvec(2, 1)) == pytest.approx(0.5, abs=1e-15)
    x = cvec(3, 1 + 1j)
    assert alpha(x, x) == pytest.approx(1.0, abs=1e-12)
    assert alpha(cvec(1, 0), cvec(1, 1)) == 0.0


def test_alpha_beta_duality(rng):
    # alpha(x, y) * beta(y, x) = 1
    for _ in range(200):
        n = int(rng.integers(2, 7))
        x, y = random_member(rng, n), random_member(rng, n)
        a, b = alpha(x, y), beta(y, x)
        if math.isinf(b):
            assert a == 0.0
        else:
            assert a * b == pytest.approx(1.0, abs=1e-10)


def test_distance_examples():
    res = distance(cvec(1, 2), cvec(2, 1))
    assert res.beta_xy == pytest.approx(2.0)
    assert res.beta_yx == pytest.approx(2.0)
    assert res.distance == pytest.approx(math.log(4.0), abs=1e-14)

    x = cvec(1 + 1j, 2, 3)
    assert distance(x, 3j * x).distance == pytest.approx(0.0, abs=1e-12)
    assert distance(cvec(1, 1), cvec(1, 0)).distance == math.inf


def test_distance_is_projective(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x, y = random_member(rng, n), random_member(rng, n)
        d = distance(x, y).distance
        lam = complex(*rng.uniform(-2, 2, 2))
        mu = complex(*rng.uniform(-2, 2, 2))
        if abs(lam) < 1e-3 or abs(mu) < 1e-3 or math.isinf(d):
            continue
        assert distance(lam * x, mu * y).distance == pytest.approx(d, abs=1e-9)


def test_distance_symmetry_and_triangle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        x, y, z = (random_member(rng, n) for _ in range(3))
        dxy = distance(x, y).distance
        assert dxy == pytest.approx(distance(y, x).distance, abs=1e-12)
        dyz = distance(y, z).distance
        dxz = distance(x, z).distance
        if math.isfinite(dxy) and math.isfinite(dyz):
            assert dxz <= dxy + dyz + 1e-9


def test_distance_rejects_zero_and_non_members():
    with pytest.raises(ValueError):
        distance(cvec(0, 0), cvec(1, 1))
    with pytest.raises(ValueError):
        distance(cvec(1, 1), cvec(1, -1))
    with pytest.raises(ValueError):
        distance(cvec(1, 1), cvec(1, 1, 1))


def test_beta_dominates_sampled_functionals(rng):
    # beta is the sup over dual-cone functionals of |<mu,x>/<mu,y>|; random
    # sampling can only fall short of the enumerated value
    for _ in range(20):
        n = int(rng.integers(2, 6))
        x, y = random_member(rng, n), random_member(rng, n)
        b = beta(x, y)
        if math.isinf(b):
            continue
        best = 0.0
        for _ in range(10000):
            mu = random_member(rng, n)
            den = abs(np.dot(mu, y))
            if den > 1e-12:
                best = max(best, abs(np.dot(mu, x)) / den)
        assert b >= best - 1e-6 * max(1.0, b)


def scalar_gauges(x, y):
    """phi and Phi of each pair, p <= q in order, by the core2x2 formulas.

    A pair on which a formula raises gives the exception type instead.
    """
    def outcome(f, M):
        try:
            return f(M)
        except (ValueError, OverflowError) as e:
            return type(e)

    n = x.size
    pairs = [Complex2x2(x[p], x[q], y[p], y[q]) for p in range(n) for q in range(p, n)]
    return [outcome(phi, M) for M in pairs], [outcome(Phi, M) for M in pairs]


def assert_gauges_match_scalar(x, y):
    """Row 0 of _gauges equals phi/Phi bit for bit, and raises only where a pair does.

    Membership of x and of y alone decides the ValueError, which the public
    entry points raise before any gauge runs. phi/Phi also check the rows of
    each 2x2 matrix for their own scalar API; the comparison runs with that
    check off, so it stays bitwise on every pair.
    """
    if not (member_closed(x) and member_closed(y)):
        for call in (beta, distance):
            with pytest.raises(ValueError, match="is not a member of the closed cone"):
                call(x, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core2x2, "_check_row_cone", lambda M, tol: None)
        want_lo, want_hi = scalar_gauges(x, y)
    raised = {v for v in want_lo + want_hi if isinstance(v, type)}
    try:
        lo, hi = _gauges(x, y, DEFAULT_TOL)
    except OverflowError as e:
        assert type(e) in raised
        return
    assert not raised
    # repr tells apart -0.0 and 0.0 and keeps nan equal to nan
    assert [repr(v) for v in lo[0].tolist()] == [repr(v) for v in want_lo]
    assert [repr(v) for v in hi[0].tolist()] == [repr(v) for v in want_hi]


@pytest.mark.parametrize("n", range(1, 11))
def test_gauges_match_scalar_on_random_members(n, rng):
    for _ in range(10):
        x, y = random_member(rng, n), random_member(rng, n, interior=True)
        assert_gauges_match_scalar(x, y)
        assert_gauges_match_scalar(y, x)
        assert_gauges_match_scalar(x, x)


def test_gauges_match_scalar_with_zero_entries(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        x, y = random_member(rng, n), random_member(rng, n)
        x[rng.random(n) < 0.4] = 0.0
        y[rng.random(n) < 0.2] = 0.0
        assert_gauges_match_scalar(x, y)
        assert_gauges_match_scalar(y, x)


def test_gauges_match_scalar_on_rank_one_pairs(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        x = random_member(rng, n)
        c = complex(*rng.uniform(-2.0, 2.0, 2))
        assert_gauges_match_scalar(x, c * x)
        assert_gauges_match_scalar(c * x, x)


@pytest.mark.parametrize("x, y", [
    (cvec(1, 1j), cvec(1, 1)),
    (cvec(1, 1j), cvec(1j, -1)),
    (cvec(1, 1j, 0), cvec(1, 0, 1j)),
    (cvec(1, 0), cvec(0, 1)),
    (cvec(0, 0), cvec(1, 1)),
    (cvec(1, -1), cvec(1, 1)),  # a row outside the planar cone
])
def test_gauges_match_scalar_on_boundary_pairs(x, y):
    assert_gauges_match_scalar(x, y)
    assert_gauges_match_scalar(y, x)


@pytest.mark.parametrize("sx, sy", [(1e150, 1.0), (1e-150, 1.0), (1e150, 1e-150),
                                    (1.2e154, 1.0), (1.2e154, 1.2e154), (1e150, 1e-160),
                                    (1e-160, 1e-160), (1e160, 1.0)])
def test_gauges_match_scalar_at_extreme_scales(sx, sy, rng):
    # squares overflow past ~1.3e154 (OverflowError in both); near 1e154 frob2
    # overflows to inf and the rank test falls to rank one; around 1e-160 the
    # squares are subnormal, pairs fall to rank zero and ratios overflow to inf
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x, y = sx * random_member(rng, n), sy * random_member(rng, n)
        assert_gauges_match_scalar(x, y)
        assert_gauges_match_scalar(y, x)


def outcome(f):
    """repr of every value in the rows f returns, or the type of the exception it raises."""
    try:
        return [[repr(v) for v in row.tolist()] for row in f()]
    except OverflowError as e:
        return type(e)


def assert_sides_match_one_sided(x, y):
    """Row 1 of _gauges(x, y) equals row 0 of _gauges(y, x), bit for bit and error for error."""
    both = outcome(lambda: [a[1] for a in _gauges(x, y, DEFAULT_TOL)])
    assert both == outcome(lambda: [a[0] for a in _gauges(y, x, DEFAULT_TOL)])


@pytest.mark.parametrize("n", range(1, 11))
def test_two_sided_gauges_match_one_sided_on_random_members(n, rng):
    for _ in range(10):
        x, y = random_member(rng, n), random_member(rng, n, interior=True)
        assert_sides_match_one_sided(x, y)
        assert_sides_match_one_sided(y, x)
        assert_sides_match_one_sided(x, x)


def test_two_sided_gauges_match_one_sided_on_zero_entries_and_rank_one_pairs(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        x, y = random_member(rng, n), random_member(rng, n)
        x[rng.random(n) < 0.4] = 0.0
        y[rng.random(n) < 0.2] = 0.0
        assert_sides_match_one_sided(x, y)
        c = complex(*rng.uniform(-2.0, 2.0, 2))
        assert_sides_match_one_sided(y, c * y)


@pytest.mark.parametrize("x, y", [
    (cvec(1, 1j), cvec(1, 1)),
    (cvec(1, 1j), cvec(1j, -1)),
    (cvec(1, 1j, 0), cvec(1, 0, 1j)),
    (cvec(1, 0), cvec(0, 1)),
    (cvec(0, 0), cvec(1, 1)),
    (cvec(1, -1), cvec(1, 1)),  # a row outside the planar cone
])
def test_two_sided_gauges_match_one_sided_on_boundary_pairs(x, y):
    assert_sides_match_one_sided(x, y)
    assert_sides_match_one_sided(y, x)


@pytest.mark.parametrize("sx, sy", [(1e150, 1.0), (1e-150, 1.0), (1e150, 1e-150),
                                    (1.2e154, 1.0), (1.2e154, 1.2e154), (1e150, 1e-160),
                                    (1e-160, 1e-160), (1e160, 1.0)])
def test_two_sided_gauges_match_one_sided_at_extreme_scales(sx, sy, rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x, y = sx * random_member(rng, n), sy * random_member(rng, n)
        assert_sides_match_one_sided(x, y)
        assert_sides_match_one_sided(y, x)


def test_two_sided_gauges_keep_the_error_order():
    # the determinant modulus of the pair (0, 1) overflows in both orders
    a = 1.34e154 * cmath.exp(1j * math.pi / 8)
    b = 0.752e154 * cmath.exp(5j * math.pi / 8)
    x, y = cvec(a, b), cvec(b, a)
    assert outcome(lambda: _gauges(x, y, DEFAULT_TOL)[1]) is OverflowError
    assert_sides_match_one_sided(x, y)
    assert_sides_match_one_sided(y, x)
    for call in (distance, beta):
        for u, v in ((x, y), (y, x)):
            with pytest.raises(OverflowError):
                call(u, v)
    # a non-member is reported before that overflow, whichever argument it is
    x, y = cvec(a, b, -a), cvec(b, a, a)
    assert outcome(lambda: _gauges(x, y, DEFAULT_TOL)[1]) is OverflowError
    for call in (distance, beta):
        with pytest.raises(ValueError, match="^x is not a member of the closed cone$"):
            call(x, y)
        with pytest.raises(ValueError, match="^y is not a member of the closed cone$"):
            call(y, x)


def test_distance_reads_both_gauges_of_beta(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        x, y = random_member(rng, n), random_member(rng, n)
        res = distance(x, y)
        assert (repr(res.beta_xy), repr(res.beta_yx)) == (repr(beta(x, y)), repr(beta(y, x)))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_pair_index_is_cached_and_read_only(n):
    p, q = _pair_index(n)
    want_p, want_q = np.triu_indices(n)
    assert np.array_equal(p, want_p) and np.array_equal(q, want_q)
    assert _pair_index(n)[0] is p
    for a in (p, q):
        with pytest.raises(ValueError):
            a[0] = 5


@pytest.mark.parametrize("n", [2, 3, 9])
def test_block_pair_index_is_cached_and_read_only(n):
    # the block sweep's row and column pairs i < j share the gauges' cache
    i, j = _pair_index(n, 1)
    want_i, want_j = np.triu_indices(n, 1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert _pair_index(n, 1)[0] is i and _pair_index(n)[0] is not i
    for a in (i, j):
        with pytest.raises(ValueError):
            a[0] = 5


def test_gauges_raise_where_the_determinant_modulus_overflows():
    # |ad - bc| is finite in each part but not in modulus: abs() raises
    a = 1.34e154 * cmath.exp(1j * math.pi / 8)
    b = 0.752e154 * cmath.exp(5j * math.pi / 8)
    with pytest.raises(OverflowError):
        Phi(Complex2x2(a, b, b, a))
    with pytest.raises(OverflowError):
        _gauges(cvec(a, b), cvec(b, a), DEFAULT_TOL)


X_WIDE = cvec(1000, 1e-3 * cmath.exp(-1e-5j), 1e-3j)  # a closed member up to tol * ||x||^2


def test_pair_of_members_is_accepted_in_both_orders():
    # the rows of the pair (1, 2) of [[x_p, x_q], [1, 1]] leave the planar cone
    # by more than tol * frob2 of that 2x2 matrix, but membership is a property
    # of each vector, so every entry point accepts the pair
    y = np.ones(3, dtype=complex)
    assert member_closed(X_WIDE)
    for call in (beta, alpha, distance):
        for u, v in ((X_WIDE, y), (y, X_WIDE)):
            call(u, v)
    b = bounds_at(np.eye(3), X_WIDE)
    assert b.lower <= 1.0 <= b.upper


def test_gauge_domain_does_not_depend_on_the_scale_of_the_other_argument(rng):
    pairs = [(X_WIDE, np.ones(3, dtype=complex))]
    for _ in range(100):
        n = int(rng.integers(2, 9))
        pairs.append((random_member(rng, n, interior=True), random_member(rng, n, interior=True)))
    scales = (2.0 ** -20, 1.0, 2.0 ** 20, 1e6)  # the first three are exact

    def attempt(call, u, v):
        try:
            return call(u, v)
        except (ValueError, OverflowError) as e:
            return type(e)

    for x, y in pairs:
        for call in (alpha, beta, distance):
            for order in (lambda c: (x, c * y), lambda c: (c * y, x)):
                got = [attempt(call, *order(c)) for c in scales]
                assert len({isinstance(g, type) for g in got}) == 1
                if call is distance and not isinstance(got[0], type):
                    assert len({repr(g.distance) for g in got[:3]}) == 1


def test_preorder_examples():
    assert preorder_geq(cvec(2, 2), cvec(1, 1))  # beta(y, x) = 1/2
    x = cvec(1 + 1j, 2)
    assert preorder_geq(x, x)
    assert not preorder_geq(cvec(1, 2), cvec(2, 1))  # beta(y, x) = 2


def test_preorder_sample_check_examples():
    assert preorder_sample_check(cvec(2, 2), cvec(1, 1), n_alpha=720, radius=0.999)
    assert not preorder_sample_check(cvec(1, 2), cvec(2, 1), n_alpha=720, radius=0.999)
    x = cvec(1 + 1j, 3)
    assert preorder_sample_check(x, 0.5 * x, n_alpha=720, radius=0.999)


def test_preorder_sample_check_validates_arguments():
    with pytest.raises(ValueError):
        preorder_sample_check(cvec(1, 1), cvec(1, 1), radius=1.0)
    with pytest.raises(ValueError):
        preorder_sample_check(cvec(1, 1), cvec(1, 1), n_alpha=0)


def test_preorder_implies_sample_check(rng):
    # domination guarantees x - a y stays in the cone for all |a| < 1
    hits = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        x, y = random_member(rng, n), random_member(rng, n)
        b = beta(y, x)
        if math.isfinite(b) and b > 0:
            y = y / (b * (1 + 1e-9))  # rescale into domination
        if preorder_geq(x, y):
            hits += 1
            assert preorder_sample_check(x, y, n_alpha=360, radius=0.999)
    assert hits > 50  # the rescaling must actually produce comparable pairs


def test_hilbert_examples():
    assert hilbert_distance([1, 2], [2, 1]) == pytest.approx(math.log(4.0), abs=1e-14)
    assert hilbert_distance([2, 4, 6], [1, 2, 3]) == pytest.approx(0.0, abs=1e-14)
    assert hilbert_distance([1, 1], [1, math.e]) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        hilbert_distance([1, 0], [1, 1])
    with pytest.raises(ValueError):
        hilbert_distance([1, -2], [1, 1])


def test_distance_matches_hilbert_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = rng.uniform(0.05, 5.0, n)
        v = rng.uniform(0.05, 5.0, n)
        assert distance(u.astype(complex), v.astype(complex)).distance == pytest.approx(
            hilbert_distance(u, v), abs=1e-10
        )


def test_random_member_lands_in_cone(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        assert member_closed(random_member(rng, n))
        assert member_open(random_member(rng, n, interior=True))
