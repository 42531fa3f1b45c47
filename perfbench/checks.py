"""Reference checks and failure accounting for benchmark tasks.

A task fails when it raises, returns the wrong status (finite where
divergence is expected, or the reverse), misses its reference by more than
max(claimed error, tolerance * |reference|), or violates a hard bound.
Every failure carries a kind ("raised:<Type>", "status", "missed", "bound"),
so that a known defect is matched by task family and failure kind, not by
the drawn inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DIGITS_FLOOR = 1e-16

# Defects of the library that some fuzz and edge inputs hit today.  A
# failure of one of these families with one of these kinds still counts as a
# failure; it only does not make the run "incorrect", because it is
# expected.  A correctness fix turns such tasks into passes and lowers the
# failure count.
KNOWN_DEFECTS = {
    ("fuzz.p-below-1", "bound"):
        "upper_bound_fuzz draws scenarios with output exponent p < 1, where "
        "Minkowski's inequality and with it the hard bound fail: two slots "
        "on one axis exceed the bound by up to about 1%",
    ("edge.floor", "missed"):
        "face-floor mass loss: graded nodes are clamped at 2^-960 and kappa "
        "is capped at 128, so the mass below the floor is dropped while the "
        "status says converged",
    ("edge.probe", "missed"):
        "probed face exponent is clamped to -0.95, so the face is graded too "
        "weakly and mass below the floor is dropped while the status says "
        "converged",
    ("edge.probe", "status"):
        "divergence scan: the per-octave growth test calls a slowly "
        "convergent face (1+b close to 0) divergent",
    ("edge.opaque-n1", "missed"):
        "capped result: after 8 cells the Gauss-Kronrod error estimate at the "
        "cutoff kink can understate the true error",
    ("edge.log-face", "raised:DomainError"):
        "divergence scan evaluates at 1-2^-72, which rounds to 1.0, so "
        "log(1/t)^-c raises DomainError instead of giving a divergent status",
}


@dataclass
class Verdict:
    """Outcome of checking one task: failures as (kind, message) pairs and
    the accuracy, in decimal digits, of every exact reference it met."""

    failures: list = field(default_factory=list)
    digits: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, kind: str, message: str) -> None:
        self.failures.append((kind, message))

    def finite(self, label: str, value: float, error: float, divergent: bool,
               ref: float, tol: float) -> None:
        """Expect a finite value whose error bar or tolerance covers ref."""
        if divergent or not math.isfinite(value):
            self.fail("status", f"{label}: got divergent/non-finite {value!r}, "
                                f"expected finite {ref!r}")
            return
        miss = abs(value - ref)
        if not miss <= max(abs(error), tol * abs(ref)):
            self.fail("missed", f"{label}: {value!r} vs reference {ref!r} "
                                f"(miss {miss:.3g}, claimed error {error:.3g}, "
                                f"tol {tol:g})")
        self.digits.append(digits(value, ref))

    def divergent(self, label: str, divergent: bool, value=None) -> None:
        if not divergent:
            self.fail("status", f"{label}: got finite {value!r}, "
                                f"expected divergence")

    def bound(self, label: str, value: float, limit: float) -> None:
        if not value <= limit:
            self.fail("bound", f"{label}: {value!r} exceeds hard bound {limit!r}")


def digits(value: float, ref: float) -> float:
    """-log10 of the relative error, floored at 1e-16."""
    rel = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
    return -math.log10(max(rel, DIGITS_FLOOR))


def raised(exc: BaseException) -> Verdict:
    v = Verdict()
    v.fail(f"raised:{type(exc).__name__}", f"{type(exc).__name__}: {exc}")
    return v


def known_cause(family: str, verdict: Verdict) -> str | None:
    """The documented cause when every failure of the task is a known
    defect of its family, else None."""
    causes = [KNOWN_DEFECTS.get((family, kind)) for kind, _ in verdict.failures]
    if not causes or any(c is None for c in causes):
        return None
    return "; ".join(sorted(set(causes)))
