"""Riemann-sphere geometry of a 2x2 matrix: the geometric oracle for phi, Phi and d1.

core2x2 computes phi, Phi and the contraction number d1 of a matrix from
closed formulas. This module computes the image of the closed right
half-plane under the Moebius map z -> (a z + b)/(c z + d) itself (a disk, a
half-plane, a point or nothing), so the tests can check those formulas
against the geometry they describe: Phi and phi are the largest and the
least modulus over the image disk, and d1 is the projective diameter of that
disk. No pipeline path uses it.
"""

import math
from dataclasses import dataclass

from conegap.core2x2 import DEFAULT_TOL, _check_row_cone, _require_finite, as_mat2, rank_of


@dataclass(frozen=True)
class RiemannPoint:
    """A point of the Riemann sphere: a finite complex value, or infinity (value None)."""

    value: complex | None

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", _require_finite(self.value, "point"))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def homogeneous(self) -> tuple[complex, complex]:
        """Homogeneous coordinates (z, w) with the point equal to z/w."""
        if self.value is None:
            return (1.0 + 0.0j, 0.0j)
        return (self.value, 1.0 + 0.0j)


INFINITY = RiemannPoint(None)


def as_point(z) -> RiemannPoint:
    """Coerce a RiemannPoint, a finite number, or an infinite float."""
    if isinstance(z, RiemannPoint):
        return z
    z = complex(z)
    if math.isinf(z.real) or math.isinf(z.imag):
        return INFINITY
    return RiemannPoint(_require_finite(z, "point"))


@dataclass(frozen=True)
class DiskOrHalfPlane:
    """Image of the closed right half-plane under a Moebius map.

    kind 'disk':       {z : |z - center| <= radius}
    kind 'half_plane': {z : Re(z * conj(normal)) >= offset}, |normal| = 1
    kind 'point':      a single Riemann-sphere point (rank-one map)
    kind 'empty':      the zero matrix, no image at all
    """

    kind: str
    center: complex | None = None
    radius: float | None = None
    normal: complex | None = None
    offset: float | None = None
    point: RiemannPoint | None = None

    @classmethod
    def disk(cls, center: complex, radius: float) -> "DiskOrHalfPlane":
        return cls("disk", center=complex(center), radius=float(radius))

    @classmethod
    def half_plane(cls, normal: complex, offset: float) -> "DiskOrHalfPlane":
        return cls("half_plane", normal=complex(normal), offset=float(offset))

    @classmethod
    def single_point(cls, p: RiemannPoint) -> "DiskOrHalfPlane":
        return cls("point", point=p)

    @classmethod
    def empty(cls) -> "DiskOrHalfPlane":
        return cls("empty")

    def contains(self, z: complex, tol: float = DEFAULT_TOL) -> bool:
        z = complex(z)
        pad = tol * (1.0 + abs(z))
        if self.kind == "disk":
            pad = tol * (1.0 + abs(z) + abs(self.center) + self.radius)
            return abs(z - self.center) <= self.radius + pad
        if self.kind == "half_plane":
            pad = tol * (1.0 + abs(z) + abs(self.offset))
            return (z * self.normal.conjugate()).real >= self.offset - pad
        if self.kind == "point":
            if self.point.is_infinity:
                return False
            return abs(z - self.point.value) <= pad
        return False


def mobius_apply(M, p) -> RiemannPoint:
    """Evaluate z -> (a z + b)/(c z + d) at a Riemann-sphere point."""
    M = as_mat2(M)
    p = as_point(p)
    z, w = p.homogeneous()
    num = M.a * z + M.b * w
    den = M.c * z + M.d * w
    if den == 0:
        if num == 0:
            raise ValueError("Moebius map is undefined at this point (matrix too degenerate)")
        return INFINITY
    return RiemannPoint(num / den)


def mobius_disk(M, tol: float = DEFAULT_TOL) -> DiskOrHalfPlane:
    """Image of the closed right half-plane under the Moebius action of M.

    Rows of M must lie in the closed planar cone. Rank 2 with
    Re(c conj(d)) > 0 gives the disk with center
    (a conj(d) + b conj(c)) / (2 Re(c conj(d))) and radius
    |ad - bc| / (2 Re(c conj(d))); Re(c conj(d)) = 0 gives a half-plane;
    rank 1 gives the single image point; rank 0 gives the empty region.
    """
    M = as_mat2(M)
    _check_row_cone(M, tol)
    rk = rank_of(M, tol)
    if rk == 0:
        return DiskOrHalfPlane.empty()
    if rk == 1:
        f2 = M.frob2()
        col1 = abs(M.a) ** 2 + abs(M.c) ** 2
        if col1 > tol * f2:
            num, den = M.a, M.c
        else:
            num, den = M.b, M.d
        if den == 0:
            return DiskOrHalfPlane.single_point(INFINITY)
        return DiskOrHalfPlane.single_point(RiemannPoint(num / den))
    re_cd = (M.c * M.d.conjugate()).real
    s = tol * M.frob2()
    if re_cd > s:
        denom = 2.0 * re_cd
        center = (M.a * M.d.conjugate() + M.b * M.c.conjugate()) / denom
        return DiskOrHalfPlane.disk(center, abs(M.det) / denom)

    # Boundary case Re(c conj(d)) = 0: the image is a closed half-plane whose
    # boundary line is the image of the imaginary axis. The pole -d/c sits on
    # that axis, so among these four boundary points at least three stay finite.
    candidates = [INFINITY, RiemannPoint(0.0j), RiemannPoint(1.0j), RiemannPoint(-1.0j)]
    finite = [q.value for q in (mobius_apply(M, p) for p in candidates) if not q.is_infinity]
    w1, w2, sep = finite[0], finite[1], -1.0
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            if abs(finite[i] - finite[j]) > sep:
                w1, w2, sep = finite[i], finite[j], abs(finite[i] - finite[j])
    w_in = mobius_apply(M, RiemannPoint(1.0 + 0.0j)).value  # z = 1 is interior, off the pole
    normal = 1.0j * (w2 - w1)
    normal = normal / abs(normal)
    if ((w_in - w1) * normal.conjugate()).real < 0.0:
        normal = -normal
    return DiskOrHalfPlane.half_plane(normal, (w1 * normal.conjugate()).real)
