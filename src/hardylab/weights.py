"""Homogeneous weights: omega(t x) = |t|^alpha omega(x).

A weight of degree alpha is determined by alpha and its restriction to the
unit sphere, so every computation that matters here reduces to the sphere
integral omega(S_d) and the radial factor.  For d = 1 the sphere is the two
point set {-1, +1} and the sphere integral is, by convention, 2 omega(1).

Ball masses (spaces._radius_grid) follow from polar decomposition:

    omega(B(0,R)) = omega(S_d) R^{d+alpha} / (d+alpha),    alpha > -d,

and the dilation identity omega(sB) = |s|^{d+alpha} omega(B) is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .expr import Expr

__all__ = ["Weight", "DivergentWeightError", "isotropic",
           "sphere_surface_area"]


class DivergentWeightError(ValueError):
    """A weight mass (sphere or ball integral) is infinite."""


def sphere_surface_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d; 2 for d = 1 by convention."""
    if d == 1:
        return 2.0
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _x1_moment(d: int, e: float) -> float:
    """integral over S_{d-1} of |x_1|^e, for d >= 2; requires e > -1."""
    if e <= -1.0:
        raise DivergentWeightError("|x_1|^e is not integrable on the sphere for e <= -1")
    return (2.0 * math.pi ** ((d - 1) / 2.0) * math.gamma((e + 1.0) / 2.0)
            / math.gamma((d + e) / 2.0))


@dataclass(frozen=True)
class Weight:
    """A weight in the homogeneous class of degree ``degree`` on R^d.

    kind:
      'isotropic'  : omega(x) = c |x|^degree                      (params: c)
      'power-x1'   : omega(x) = c |x_1/|x||^e |x|^degree          (params: c, e)
      'angular'    : omega(x) = phi(theta) |x|^degree, d <= 2,
                     phi an even Expr in the angle (variable t1)  (params: phi)
      'product'    : prod_k w_k(x)^{q_k}, degree = sum q_k alpha_k (params: parts)
    """

    d: int
    degree: float
    kind: str = "isotropic"
    c: float = 1.0
    e: float = 0.0
    phi: Expr | None = None
    parts: tuple = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind not in ("isotropic", "power-x1", "angular", "product"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind in ("isotropic", "power-x1") and not self.c > 0.0:
            raise ValueError(f"weight constant c must be > 0, got {self.c}")
        if self.kind == "angular":
            if self.d > 2:
                raise ValueError("angular-profile weights are limited to d <= 2")
            theta = np.linspace(0.05, math.pi - 0.05, 32)
            plus = _expr.evaluate(self.phi, t=theta[:, None])
            minus = _expr.evaluate(self.phi, t=-theta[:, None])
            if np.any(plus < 0.0) or np.any(minus < 0.0):
                raise ValueError("angular profile must be nonnegative")
            scale = np.maximum(np.abs(plus), 1e-300)
            if np.max(np.abs(plus - minus) / scale) > 1e-10:
                raise ValueError("angular profile must be even in the angle")

    # -- pointwise evaluation ------------------------------------------------

    def angular(self, u: np.ndarray) -> np.ndarray:
        """Value on the unit sphere, u of shape (N, d) with |u| = 1."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if self.kind == "isotropic":
            return np.full(u.shape[0], self.c)
        if self.kind == "power-x1":
            return self.c * np.abs(u[:, 0]) ** self.e
        if self.kind == "angular":
            if self.d == 1:
                return _expr.evaluate(self.phi, t=np.zeros((u.shape[0], 1)))
            theta = np.arctan2(u[:, 1], u[:, 0])
            return _expr.evaluate(self.phi, t=theta[:, None])
        if self.kind == "product":
            out = np.ones(u.shape[0])
            for w, q in self.parts:
                out = out * w.angular(u) ** q
            return out
        raise AssertionError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """omega at points x of shape (N, d); omega(0) := 0 for degree > 0."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rad = np.sqrt(np.sum(x * x, axis=1))
        out = np.zeros(x.shape[0])
        nz = rad > 0.0
        if np.any(~nz) and self.degree <= 0.0:
            raise _expr.DomainError("weight evaluated at the origin with degree <= 0")
        if np.any(nz):
            u = x[nz] / rad[nz, None]
            out[nz] = self.angular(u) * rad[nz] ** self.degree
        return out

    # -- integrals -----------------------------------------------------------

    def sphere_integral(self) -> float:
        """omega(S_d) = integral of the angular part over the unit sphere."""
        d = self.d
        if self.kind == "isotropic":
            return self.c * sphere_surface_area(d)
        if self.kind == "power-x1":
            if d == 1:
                return 2.0 * self.c
            return self.c * _x1_moment(d, self.e)
        if self.kind == "angular":
            if d == 1:
                return 2.0 * float(self.angular(np.array([[1.0]]))[0])
            return self._circle_integral(lambda u: self.angular(u))
        if self.kind == "product":
            if all(w.kind == "isotropic" for w, _ in self.parts):
                c = 1.0
                for w, q in self.parts:
                    c *= w.c ** q
                return c * sphere_surface_area(d)
            if d == 1:
                return 2.0 * float(self.angular(np.array([[1.0]]))[0])
            if all(w.kind in ("isotropic", "power-x1") for w, _ in self.parts):
                c, e = 1.0, 0.0
                for w, q in self.parts:
                    c *= w.c ** q
                    if w.kind == "power-x1":
                        e += w.e * q
                return c * _x1_moment(d, e)
            if d == 2:
                return self._circle_integral(lambda u: self.angular(u))
            raise ValueError("general angular products are limited to d <= 2")
        raise AssertionError

    def _circle_integral(self, fn) -> float:
        from .quad import integrate_interval

        def g(theta):
            u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            return fn(u)

        res = integrate_interval(g, 0.0, 2.0 * math.pi, tol=1e-12)
        if not res.converged:
            raise DivergentWeightError("angular profile failed to integrate")
        return res.value

    def locally_integrable(self) -> bool:
        return self.degree > -self.d


def isotropic(d: int, degree: float, c: float = 1.0) -> Weight:
    """c |x|^degree; the ubiquitous power weight."""
    return Weight(d=d, degree=degree, kind="isotropic", c=c)


def product_weight(factors: list[tuple[Weight, float]]) -> Weight:
    """prod_k w_k^{q_k}; homogeneous of degree sum q_k alpha_k."""
    if not factors:
        raise ValueError("need at least one factor")
    d = factors[0][0].d
    degree = sum(w.degree * q for w, q in factors)
    if any(w.d != d for w, _ in factors):
        raise ValueError("factors live in different dimensions")
    return Weight(d=d, degree=degree, kind="product", parts=tuple(factors))

