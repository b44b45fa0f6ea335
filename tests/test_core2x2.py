import cmath
import math

import numpy as np
import pytest

from conegap.core2x2 import (
    Complex2x2,
    DeltaQuadruple,
    Phi,
    as_mat2,
    delta1,
    deltas,
    diameter_bound,
    eta1,
    in_gamma_closed,
    in_gamma_open,
    phi,
    rank_of,
    refined_rate,
    theta2,
)
from tests.reference_mobius import INFINITY, RiemannPoint, as_point, mobius_apply, mobius_disk
from tests.test_certify_sweep import AWKWARD_SCALE, MIRROR_BOUNDARIES, _corner_blocks, _flip_point, _ulps_around

LOG4 = math.log(4.0)

SYM = Complex2x2(2, 1, 1, 2)
ONES = Complex2x2(1, 1, 1, 1)
IDENT = Complex2x2(1, 0, 0, 1)
SIGN = Complex2x2(1, -1, 1, 1)
ZERO = Complex2x2(0, 0, 0, 0)
HERM = Complex2x2(2, 1 + 1j, 1 - 1j, 2)


def random_gamma_open(rng):
    # positive real base plus a small imaginary part stays in the open class
    while True:
        m = rng.uniform(0.2, 2.0, (2, 2)) + 1j * rng.uniform(-0.05, 0.05, (2, 2))
        M = as_mat2(m)
        if in_gamma_open(M):
            return M


def half_plane_metric(z1: complex, z2: complex) -> float:
    # projective distance between interior points of the right half-plane
    s = abs(z1 + z2.conjugate())
    d = abs(z1 - z2)
    return math.log((s + d) / (s - d))


def test_entries_must_be_finite():
    with pytest.raises(ValueError):
        Complex2x2(float("nan"), 0, 0, 1)
    with pytest.raises(ValueError):
        Complex2x2(1, complex(0, float("inf")), 0, 1)


def test_accessors():
    assert SYM.det == 3
    assert SYM.transpose() == SYM
    M = Complex2x2(1, 2, 3, 4)
    assert M.transpose() == Complex2x2(1, 3, 2, 4)
    assert as_mat2([[1, 2], [3, 4]]) == M
    assert as_mat2(np.array([[1, 2], [3, 4]])) == M


def test_gamma_open_examples():
    assert not in_gamma_open(IDENT)  # Re(a conj(b)) = 0 sits on the boundary
    assert in_gamma_open(SYM)  # |det| = 3 < 5
    assert not in_gamma_open(SIGN)  # Re(a conj(b)) = -1


def test_gamma_closed_examples():
    assert in_gamma_closed(IDENT)  # equality case 1 <= 1
    assert in_gamma_closed(ZERO)
    assert not in_gamma_closed(SIGN)


def test_theta2_examples():
    assert theta2(SYM) == 0.6
    assert theta2(ONES) == 0.0
    assert theta2(Complex2x2(1, 0, 0, -1)) is None  # denominator -1


def test_deltas_worked_example():
    d = deltas(SYM)
    assert d.as_tuple() == pytest.approx((LOG4, LOG4, LOG4, LOG4), abs=1e-14)


def test_deltas_rank_one():
    assert deltas(ONES).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_deltas_complex_example():
    # det = 2, R = 4, |a conj(d) + conj(b) c| = |a conj(d) + b conj(c)| = sqrt(20)
    d = deltas(HERM)
    s = math.sqrt(20.0)
    assert d.d1 == pytest.approx(math.log(3.0), abs=1e-14)
    assert d.d2 == pytest.approx(math.log((s + 2) / (s - 2)), abs=1e-14)
    assert d.d3 == pytest.approx(math.log((s + 2) / (s - 2)), abs=1e-14)
    assert d.d4 == pytest.approx(math.log(2.0), abs=1e-14)
    assert d.d4 <= d.d2 <= d.d1 and d.d4 <= d.d3 <= d.d1


def test_deltas_ordering_random(rng):
    # d4 <= d2, d3 <= d1 throughout the open class
    for _ in range(500):
        d = deltas(random_gamma_open(rng))
        assert d.d4 <= d.d2 + 1e-12 and d.d4 <= d.d3 + 1e-12
        assert d.d2 <= d.d1 + 1e-12 and d.d3 <= d.d1 + 1e-12


def test_delta1_matches_d1(rng):
    for _ in range(500):
        M = random_gamma_open(rng)
        assert deltas(M).d1 == pytest.approx(delta1(theta2(M)), abs=1e-12)


def test_d1_is_sampled_diameter_of_image_disk():
    # boundary samples of disk(5/4, 3/4) in the half-plane metric peak at log 4
    d1 = deltas(SYM).d1
    disk = mobius_disk(SYM)
    zs = [disk.center + disk.radius * cmath.exp(1j * t) for t in np.linspace(0, 2 * math.pi, 256, endpoint=False)]
    best = max(half_plane_metric(z1, z2) for i, z1 in enumerate(zs) for z2 in zs[i + 1:])
    assert best <= d1 + 1e-9
    assert best == pytest.approx(d1, abs=1e-9)  # the extreme pair lies on the real axis


def test_phi_examples():
    assert phi(SYM) == pytest.approx(0.5, abs=1e-15)  # 4/(5+3)
    assert phi(Complex2x2(3, 3, 1, 1)) == pytest.approx(3.0, abs=1e-15)  # rank 1
    assert phi(ZERO) == math.inf


def test_Phi_examples():
    assert Phi(SYM) == pytest.approx(2.0, abs=1e-15)  # (5+3)/4
    assert Phi(Complex2x2(1, 1, 1, 0)) == math.inf  # Re(c conj(d)) = 0
    assert Phi(ZERO) == 0.0


def test_phi_domain_error():
    with pytest.raises(ValueError):
        phi(SIGN)
    with pytest.raises(ValueError):
        Phi(Complex2x2(1, 1, 1, -1))


def test_phi_Phi_match_disk_geometry(rng):
    # Phi = |center| + radius and phi = max(0, |center| - radius), checked
    # against boundary samples of the image disk
    for _ in range(50):
        M = random_gamma_open(rng)
        disk = mobius_disk(M)
        assert disk.kind == "disk"
        hi, lo = Phi(M), phi(M)
        assert hi == pytest.approx(abs(disk.center) + disk.radius, rel=1e-12)
        assert lo == pytest.approx(max(0.0, abs(disk.center) - disk.radius), rel=1e-12, abs=1e-12)
        for t in np.linspace(0, 2 * math.pi, 1000, endpoint=False):
            z = disk.center + disk.radius * cmath.exp(1j * t)
            assert lo - 1e-9 <= abs(z) <= hi + 1e-9


def test_rank_of_examples():
    assert rank_of(SYM) == 2
    assert rank_of(Complex2x2(3, 3, 1, 1)) == 1
    assert rank_of(ZERO) == 0
    # rank classification is scale-free
    assert rank_of(as_mat2([[3e8, 3e8], [1e8, 1e8]])) == 1


def test_mobius_disk_examples():
    d = mobius_disk(SYM)
    assert d.kind == "disk"
    assert d.center == pytest.approx(1.25, abs=1e-15)
    assert d.radius == pytest.approx(0.75, abs=1e-15)

    d = mobius_disk(Complex2x2(1, 1, 1, 2))
    assert d.center == pytest.approx(0.75, abs=1e-15)
    assert d.radius == pytest.approx(0.25, abs=1e-15)

    h = mobius_disk(IDENT)
    assert h.kind == "half_plane"
    assert h.normal == pytest.approx(1.0, abs=1e-15)
    assert h.offset == pytest.approx(0.0, abs=1e-15)


def test_mobius_disk_endpoints_on_boundary():
    # R(0) = b/d and R(inf) = a/c are boundary points of the image disk
    for M, lo, hi in [(SYM, 0.5, 2.0), (Complex2x2(1, 1, 1, 2), 0.5, 1.0)]:
        d = mobius_disk(M)
        assert abs(mobius_apply(M, 0).value - d.center) == pytest.approx(d.radius, abs=1e-12)
        assert abs(mobius_apply(M, INFINITY).value - d.center) == pytest.approx(d.radius, abs=1e-12)
        assert mobius_apply(M, 0).value == pytest.approx(lo)
        assert mobius_apply(M, INFINITY).value == pytest.approx(hi)


def test_mobius_disk_rank_degenerate():
    p = mobius_disk(Complex2x2(3, 3, 1, 1))
    assert p.kind == "point" and p.point.value == pytest.approx(3.0)
    assert mobius_disk(ZERO).kind == "empty"


def test_mobius_image_lands_in_region(rng):
    # the computed region contains the image of random half-plane points,
    # for the disk case and the half-plane case alike
    mats = [random_gamma_open(rng) for _ in range(30)]
    mats += [IDENT, Complex2x2(1, 1, 0, 1), Complex2x2(1j, 0, 0, 1), Complex2x2(0, 1, 1, 0)]
    for M in mats:
        region = mobius_disk(M)
        for _ in range(50):
            z = complex(rng.uniform(0, 5), rng.uniform(-5, 5))
            w = mobius_apply(M, z)
            if not w.is_infinity:
                assert region.contains(w.value, tol=1e-9)


def test_disk_strictness(rng):
    # open-class matrices map into a disk strictly inside the half-plane
    for _ in range(200):
        d = mobius_disk(random_gamma_open(rng))
        assert d.kind == "disk"
        assert d.center.real > d.radius


def test_theta2_scale_invariance(rng):
    for _ in range(200):
        M = random_gamma_open(rng)
        t = theta2(M)
        lam = complex(*rng.uniform(-2, 2, 2))
        if abs(lam) < 1e-6:
            continue
        scaled = as_mat2([[M.a * lam, M.b * lam], [M.c * lam, M.d * lam]])
        assert theta2(scaled) == pytest.approx(t, rel=1e-12)
        d1, d2 = rng.uniform(0.1, 10, 2), rng.uniform(0.1, 10, 2)
        diag = as_mat2([[M.a * d1[0] * d2[0], M.b * d1[0] * d2[1]],
                        [M.c * d1[1] * d2[0], M.d * d1[1] * d2[1]]])
        assert theta2(diag) == pytest.approx(t, rel=1e-12)


def test_transpose_relations(rng):
    for _ in range(300):
        m = rng.uniform(-2, 2, (2, 2)) + 1j * rng.uniform(-2, 2, (2, 2))
        M = as_mat2(m)
        T = M.transpose()
        assert in_gamma_open(M) == in_gamma_open(T)
        assert in_gamma_closed(M) == in_gamma_closed(T)
        tM, tT = theta2(M), theta2(T)
        assert (tM is None) == (tT is None)
        if tM is not None:
            assert tM == tT  # commutative products, bitwise equal
        if in_gamma_open(M):
            dM, dT = deltas(M), deltas(T)
            assert dM.d1 == dT.d1 and dM.d4 == dT.d4
            assert dM.d2 == dT.d3 and dM.d3 == dT.d2


@pytest.mark.parametrize("scale", [1.0, AWKWARD_SCALE])
def test_frob2_is_bitwise_invariant_under_transpose_and_swaps(rng, scale):
    for _ in range(500):
        a, b, c, d = (scale * complex(*rng.standard_normal(2)) for _ in range(4))
        f2 = Complex2x2(a, b, c, d).frob2()
        assert Complex2x2(a, c, b, d).frob2() == f2  # transpose
        assert Complex2x2(c, d, a, b).frob2() == f2  # row swap
        assert Complex2x2(b, a, d, c).frob2() == f2  # column swap


@pytest.mark.parametrize("scale", [1.0, AWKWARD_SCALE])
@pytest.mark.parametrize("case", range(len(MIRROR_BOUNDARIES)))
def test_margin_tests_agree_with_transpose_near_boundaries(case, scale):
    family, pred, lo, hi, tol, _ = MIRROR_BOUNDARIES[case]
    t0 = _flip_point(lambda t: _corner_blocks(family(t))[0], pred, lo, hi)
    for t in _ulps_around(t0, 6):
        T = _corner_blocks(scale * family(t))[0]
        TT = T.transpose()
        assert in_gamma_open(T, tol) == in_gamma_open(TT, tol)
        assert in_gamma_closed(T, tol) == in_gamma_closed(TT, tol)
        # theta is defined, or the block is rank-degenerate with theta 0
        defined = [theta2(M) is not None or abs(M.det) <= tol * M.frob2() for M in (T, TT)]
        assert defined[0] == defined[1]


def test_product_identity(rng):
    # |a conj(d) + b conj(c)|^2 - |ad - bc|^2 = 4 Re(a conj(b)) Re(c conj(d))
    for _ in range(1000):
        a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
        lhs = abs(a * d.conjugate() + b * c.conjugate()) ** 2 - abs(a * d - b * c) ** 2
        rhs = 4.0 * (a * b.conjugate()).real * (c * d.conjugate()).real
        scale = (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


def test_delta1_values():
    assert delta1(0.0) == 0.0
    assert delta1(0.6) == pytest.approx(LOG4, abs=1e-15)
    assert delta1(1.0) == math.inf
    assert delta1(2.0) == math.inf
    with pytest.raises(ValueError):
        delta1(-0.1)
    with pytest.raises(ValueError):
        delta1(float("nan"))


def test_eta1_closed_form():
    # tanh((9/4) log((1+t)/(1-t))) = ((1+t)^4.5 - (1-t)^4.5)/((1+t)^4.5 + (1-t)^4.5)
    for t in np.linspace(0.0, 0.95, 30):
        p, q = (1 + t) ** 4.5, (1 - t) ** 4.5
        assert eta1(t) == pytest.approx((p - q) / (p + q), abs=1e-14)
    assert eta1(0.0) == 0.0
    assert eta1(1.0) == 1.0


def test_eta1_worked_value():
    assert eta1(0.6) == pytest.approx(511.0 / 513.0, abs=1e-15)


def test_refined_rate_and_diameter():
    q = DeltaQuadruple(LOG4, LOG4, LOG4, LOG4)
    assert refined_rate(q) == pytest.approx(511.0 / 513.0, abs=1e-15)
    assert diameter_bound(q) == pytest.approx(9.0 * LOG4, abs=1e-12)
    inf_q = DeltaQuadruple(math.inf, 0.0, 0.0, 0.0)
    assert refined_rate(inf_q) == 1.0
    assert diameter_bound(inf_q) == math.inf


def test_as_point_coercions():
    assert as_point(3).value == 3 + 0j
    assert as_point(float("inf")).is_infinity
    assert as_point(INFINITY) is INFINITY
    with pytest.raises(ValueError):
        RiemannPoint(complex(float("nan"), 0))
