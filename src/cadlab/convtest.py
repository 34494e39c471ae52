"""Statistical verification harness: empirical characteristic functions,
exact two-sample Kolmogorov-Smirnov statistics, finite-dimensional and
standardization tests, and report assembly.

Equality-in-law claims are always tested two-sample against a simulated
reference ensemble built from the closed-form limit samplers, never
against asymptotic one-sample formulas.  Distributional tests use the 1%
two-sample KS critical value; mean checks use standard-error bands.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import arrays
from .arrays import ArraySpec
from .levy import RngStream
from .paths import PathDomainError

__all__ = [
    "ecf_distance",
    "ks_two_sample",
    "ks_critical_value",
    "CheckEntry",
    "ConvergenceReport",
    "fdd_test",
    "standardization_test",
    "lenglart_check",
    "transform_cf_test",
]


# -- basic statistics ------------------------------------------------------


def ecf_distance(
    samples: np.ndarray,
    cf: Callable[[float], complex],
    lambda_grid: Sequence[float],
) -> float:
    """sup over the grid of |empirical CF - model CF|.

    The empirical CF is computed from explicit cosine and sine means, once
    per |lambda|: cos is even, sin is odd and (-lambda) x = -(lambda x), so
    at -lambda it is the conjugate, bit for bit.  The model CF is evaluated
    at every lambda.
    """
    x = np.asarray(samples, dtype=float)
    grid = np.asarray(lambda_grid, dtype=float)
    if x.size == 0 or grid.size == 0:
        raise PathDomainError("samples and lambda grid must be non-empty")
    sides = {}
    ax, trig = np.empty_like(x), np.empty_like(x)
    best = 0.0
    for lam in grid:
        a = abs(float(lam))
        if a not in sides:
            np.multiply(a, x, out=ax)
            sides[a] = (float(np.mean(np.cos(ax, out=trig))),
                        float(np.mean(np.sin(ax, out=trig))))
        re, im = sides[a]
        if lam < 0:
            im = -im
        model = complex(cf(float(lam)))
        best = max(best, math.hypot(re - model.real, im - model.imag))
    return best


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Classical two-sample KS statistic, exact via sort and merge."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise PathDomainError("both samples must be non-empty")
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / a.size
    fb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical_value(alpha: float, m: int, n: int) -> float:
    """Asymptotic two-sample critical value c(alpha) * sqrt((m+n)/(m n))."""
    if not 0 < alpha < 1:
        raise PathDomainError("alpha must lie in (0, 1)")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


# -- report structures -----------------------------------------------------


@dataclass
class CheckEntry:
    check_name: str
    n: int
    param: str
    statistic: float
    threshold: float
    passed: bool
    stderr: float
    seed: int
    samples: int

    def row(self) -> list:
        return [self.check_name, self.n, self.param, self.statistic,
                self.threshold, self.passed, self.stderr, self.seed,
                self.samples]


@dataclass
class ConvergenceReport:
    experiment_id: str
    seed: int
    samples: int
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, entry: CheckEntry):
        self.entries.append(entry)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "seed": self.seed,
            "samples": self.samples,
            "entries": [vars(e) for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["check_name", "n", "param", "statistic", "threshold",
                    "pass", "se", "seed", "samples"])
        for e in self.entries:
            w.writerow(e.row())
        return buf.getvalue()


# -- composite tests -------------------------------------------------------

#: level of the two-sample KS tests below
_ALPHA = 0.01


def fdd_test(
    spec: ArraySpec,
    times: Sequence[float],
    weights: Sequence[float],
    target_sampler: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    rng: RngStream,
    which: str = "A",
) -> CheckEntry:
    """Two-sample KS between a weighted increment combination of the array
    and the same combination under the limit law.

    ``target_sampler(gen, size)`` must draw the limit combination; the two
    sides use independent streams.
    """
    times = list(times)
    weights = list(weights)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise PathDomainError("times must be strictly increasing")
    if len(weights) != len(times):
        raise PathDomainError("need one weight per increment")
    marg = arrays.marginal_samples(spec, times, samples, rng.child(0),
                                   fields=(which,))
    vals = marg[which]
    incs = np.diff(np.concatenate(
        [np.zeros((vals.shape[0], 1)), vals], axis=1), axis=1)
    combo = incs @ np.asarray(weights, dtype=float)
    target = target_sampler(rng.child(1).generator(), samples)
    stat = ks_two_sample(combo, target)
    thr = ks_critical_value(_ALPHA, samples, len(target))
    return CheckEntry(
        check_name="fdd", n=spec.n,
        param=f"{which};times={times};weights={weights}",
        statistic=stat, threshold=thr, passed=stat <= thr,
        stderr=0.0, seed=rng.master_seed, samples=samples,
    )


def standardization_test(
    spec: ArraySpec,
    t: float,
    samples: int,
    rng: RngStream,
) -> CheckEntry:
    """KS of M(t)/sqrt(A(t)) (with 0/0 = 0) against standard normal draws."""
    if t <= 0:
        raise PathDomainError("t must be > 0")
    marg = arrays.marginal_samples(spec, [t], samples, rng.child(0),
                                   fields=("M", "A"))
    m = marg["M"][:, 0]
    a = marg["A"][:, 0]
    ratio = np.zeros_like(m)
    pos = a > 0
    ratio[pos] = m[pos] / np.sqrt(a[pos])
    normal = rng.child(1).generator().normal(0.0, 1.0, size=samples)
    stat = ks_two_sample(ratio, normal)
    thr = ks_critical_value(_ALPHA, samples, samples)
    return CheckEntry(
        check_name="standardization", n=spec.n, param=f"t={t}",
        statistic=stat, threshold=thr, passed=stat <= thr,
        stderr=0.0, seed=rng.master_seed, samples=samples,
    )


def lenglart_check(
    spec: ArraySpec,
    epsilon: float,
    eta: float,
    t: float,
    samples: int,
    rng: RngStream,
) -> CheckEntry:
    """Empirical check of the maximal-inequality bound with X = M^2, Y = A:
    P(sup M^2 >= eps) <= eta/eps + P(A(t) >= eta) within 3 joint SEs."""
    if epsilon <= 0 or eta <= 0:
        raise PathDomainError("epsilon and eta must be > 0")
    sup_m = arrays.running_sup_samples(spec, t, samples, rng.child(0), field="M")
    lhs_hits = sup_m * sup_m >= epsilon
    lhs = float(np.mean(lhs_hits))
    marg = arrays.marginal_samples(spec, [t], samples, rng.child(1), fields=("A",))
    rhs_hits = marg["A"][:, 0] >= eta
    p_a = float(np.mean(rhs_hits))
    rhs = eta / epsilon + p_a
    se = math.sqrt(
        lhs * (1 - lhs) / samples + p_a * (1 - p_a) / samples
    )
    stat = lhs - rhs
    thr = 3.0 * se
    return CheckEntry(
        check_name="lenglart", n=spec.n,
        param=f"eps={epsilon};eta={eta};t={t}",
        statistic=stat, threshold=thr, passed=stat <= thr,
        stderr=se, seed=rng.master_seed, samples=samples,
    )


def transform_cf_test(
    base: ArraySpec,
    weight: "arrays.WeightSpec",
    t: float,
    samples: int,
    rng: RngStream,
    lambda_grid: Sequence[float],
    threshold: float,
) -> CheckEntry:
    """ECF distance between transform samples and the weighted-clock CF
    oracle (quadrature over the log-Laplace exponent)."""
    from .levy import weighted_gamma_subordinated_cf

    spec = arrays.TransformArray(base, weight)
    marg = arrays.marginal_samples(spec, [t], samples, rng.child(0),
                                   fields=("M",))
    q = weight.resolve()
    stat = ecf_distance(
        marg["M"][:, 0],
        lambda lam: weighted_gamma_subordinated_cf(t, lam, q),
        lambda_grid,
    )
    return CheckEntry(
        check_name="transform_cf", n=base.n, param=f"t={t};Q={weight.name}",
        statistic=stat, threshold=threshold, passed=stat <= threshold,
        stderr=0.0, seed=rng.master_seed, samples=samples,
    )
