"""Reproducible experiment runner.

A config names an experiment, a master seed, a default sample count and a
list of check descriptors.  Every check derives its own random stream by
stable hashing of (master seed, experiment id, check name, position), so
reports are byte-identical across reruns and across ``--jobs`` settings;
wall-clock metadata goes to a sidecar file, never into the report.  The
``--jobs`` workers run the checks and also take ``ecf_linnik``'s n-ladder
rungs, largest n first (:func:`_spread`).
Every key of every check is checked against the check's declared
parameters when the config is loaded, before any check runs.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import inspect
import json
import math
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import arrays, convtest, fixtures, levy, skorohod
from .arrays import ArraySpec
from .convtest import CheckEntry, ConvergenceReport, ks_critical_value
from .levy import RngStream, SubordinatorSpec, _read
from .paths import PathDomainError
from .skorohod import TripleKind

MASTER_SEED_ENV = "CADLAB_MASTER_SEED"


class ConfigError(Exception):
    """Schema or content problem in an experiment config."""

    def __init__(self, message: str, line: int = 1):
        super().__init__(message)
        self.line = line


def derive_seed(master_seed: int, experiment_id: str, check_name: str,
                index: int) -> int:
    """Stable 63-bit per-check seed; independent of scheduling."""
    key = f"{master_seed}|{experiment_id}|{check_name}|{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def _rng(seed: int) -> RngStream:
    return RngStream(master_seed=seed, stream_index=0)


#: the lambdas at which the CF checks compare characteristic functions
_CF_GRID = np.arange(-3, 3.125, 0.25)

#: the thread pool of the run_experiment call under way with --jobs > 1
_POOL: Optional[concurrent.futures.ThreadPoolExecutor] = None


def _spread(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order.

    Without a pool this is that loop.  Under :data:`_POOL` every item is
    submitted, last first, so the costliest should come last; this thread
    then runs, last first, each item that no worker has started, and only
    after that waits for those that workers took.  It only ever waits for
    an item that is already running, so nested calls cannot deadlock.
    """
    if _POOL is None:
        return [fn(x) for x in items]
    order = items[::-1]
    futures = [_POOL.submit(fn, x) for x in order]
    mine = {}
    try:
        for i, x in enumerate(order):
            if futures[i].cancel():  # no worker has started it
                mine[i] = fn(x)
        return [mine[i] if i in mine else futures[i].result()
                for i in reversed(range(len(order)))]
    finally:
        for future in futures:  # after a raise, no worker starts the rest
            future.cancel()


# -- check runners ---------------------------------------------------------
#
# Each runner maps (effective sample count, derived seed, parameters) to a
# list of CheckEntry rows.  ``_check`` files it in ``_REGISTRY`` with its
# description and its parameters after (samples, seed), each an
# (annotation, default) pair read off its signature; a parameter without a
# default is required.  The config loader reads every key as its annotation
# says (``levy._read``).  A runner's preconditions on its own parameters go
# to ``_REQUIRES``, so that they too fail at load.

_REGISTRY: dict[str, tuple] = {}
#: check name -> (key, condition, message) rows: a condition on the runner's
#: keywords, the key whose line an error names, and the error's text,
#: formatted with the keywords
_REQUIRES: dict[str, tuple] = {}
_T_POSITIVE = ("t", lambda p: p["t"] > 0, "t must be > 0, got {t}")
_T_NONNEGATIVE = ("t", lambda p: p["t"] >= 0, "t must be >= 0, got {t}")
_T_IN_ARRAY = ("t", lambda p: 0 < p["t"] <= p["array"].horizon,
               "t must lie in (0, {array.horizon}], got {t}")
_N_LIST = ("n_list", lambda p: min(p["n_list"]) >= 1,
           "n_list must be >= 1, got {n_list}")
_T_FIXTURE = ("T", lambda p: 0 < p["T"] <= fixtures.HORIZON,
              f"T must lie in (0, {fixtures.HORIZON}], got {{T}}")
_N_POSITIVE = ("n", lambda p: p["n"] >= 1, "n must be >= 1, got {n}")
_EPSILON_POSITIVE = ("epsilon", lambda p: p["epsilon"] > 0,
                     "epsilon must be > 0, got {epsilon}")
_LADDER = ("n_ladder", lambda p: all(
    a < b for a, b in zip([0, *p["n_ladder"]], p["n_ladder"])),
    "n_ladder must be >= 1 and strictly increasing, got {n_ladder}")
_KINDS = tuple(k.value for k in TripleKind)


def _check(name: str, description: str, requires=()):
    def register(runner):
        rows = list(inspect.signature(runner).parameters.values())[2:]
        _REGISTRY[name] = (runner, description,
                           {p.name: (p.annotation, p.default) for p in rows})
        _REQUIRES[name] = requires
        return runner
    return register


@_check("counterexample_m1",
        "Exact monotone-kind modulus of the tent/steep-ramp compositions "
        "(= 1 for every ramp) and the failing composition condition of the "
        "ramp limit.",
        requires=[_N_LIST, _T_FIXTURE, ("delta", lambda p: p["delta"] > 0,
                                        "delta must be > 0, got {delta}")])
def _run_counterexample_m1(samples, seed, n_list: list[int] = [3, 5, 10],
                           delta: float = 0.5, T: float = 2.0):
    entries = []
    for n in n_list:
        mod = skorohod.modulus(fixtures.composed_ramp(n), TripleKind.M,
                               delta, T)
        stat = abs(mod - 1.0)
        entries.append(CheckEntry(
            check_name="counterexample_m1", n=n,
            param=f"kind=M;delta={delta};T={T}", statistic=stat,
            threshold=0.0, passed=stat <= 0.0, stderr=0.0, seed=seed,
            samples=1,
        ))
    verdict = skorohod.composition_condition(fixtures.tent_path(),
                                             fixtures.ramp_limit())
    ok = (not verdict.holds) and verdict.fails_at == fixtures.HORIZON
    entries.append(CheckEntry(
        check_name="counterexample_m1", n=0,
        param=f"composition_fails_at={verdict.fails_at}",
        statistic=0.0 if ok else 1.0, threshold=0.0, passed=ok,
        stderr=0.0, seed=seed, samples=1,
    ))
    return entries


@_check("ecf_linnik",
        "Empirical CF of M(t) for the gamma-clock normal array against "
        "(1 + lambda^2/2)^(-t), with a weak-monotonicity trend check over "
        "the n ladder, which must increase strictly.",
        requires=[_LADDER, _T_POSITIVE])
def _run_ecf_linnik(samples, seed, n_ladder: list[int] = [64, 128, 256],
                    t: float = 1.0, threshold: float = 0.03):
    se = math.sqrt(2.0 / samples)

    def rung(i):
        spec = arrays.LinnikArray(n=n_ladder[i], horizon=t)
        marg = arrays.marginal_samples(spec, [t], samples,
                                       _rng(seed).child(i), fields=("M",))
        return convtest.ecf_distance(marg["M"][:, 0],
                                     lambda lam: levy.linnik_cf(t, lam),
                                     _CF_GRID)

    # the ladder increases strictly, so the costliest rung comes last
    dists = _spread(rung, range(len(n_ladder)))
    entries = []
    for n, d in zip(n_ladder, dists):
        entries.append(CheckEntry(
            check_name="ecf_linnik", n=n, param=f"t={t}", statistic=d,
            threshold=threshold, passed=d <= threshold, stderr=se,
            seed=seed, samples=samples,
        ))
    for (n1, d1), (n2, d2) in zip(zip(n_ladder, dists),
                                  zip(n_ladder[1:], dists[1:])):
        joint = math.sqrt(2.0) * se
        entries.append(CheckEntry(
            check_name="ecf_linnik", n=n2,
            param=f"trend_vs_n={n1}", statistic=d2 - d1,
            threshold=2.0 * joint, passed=d2 - d1 <= 2.0 * joint,
            stderr=joint, seed=seed, samples=samples,
        ))
    return entries


@_check("fdd_gamma",
        "Two-sample KS of the gamma-clock compensator A(t) against "
        "Gamma(t, 1) draws at the 1% critical value.",
        requires=[_N_POSITIVE, _T_POSITIVE])
def _run_fdd_gamma(samples, seed, n: int = 256, t: float = 1.0):
    spec = arrays.LinnikArray(n=n, horizon=t)
    entry = convtest.fdd_test(
        spec, [t], [1.0], lambda gen, size: gen.gamma(t, 1.0, size=size),
        samples, _rng(seed))
    return [entry]


@_check("hyp_c",
        "Monte Carlo estimate of E{A(tau(A(t))) - A(t)} (compensator gap at "
        "the first jump after t), compared with 'expected' within 4 SE; "
        "null 'expected' reports the estimate only.",
        requires=[_T_NONNEGATIVE,
                  ("t", lambda p: p["t"] < p["array"].horizon,
                   "t must be < the array's horizon {array.horizon}, got {t}")])
def _run_hyp_c(samples, seed, array: ArraySpec, t: float = 0.7,
               expected: Optional[float] = None):
    est = arrays.check_hyp_c(array, t, samples, _rng(seed))
    if expected is None:
        stat, thr, ok = est.estimate, float("inf"), True
    else:
        stat = abs(est.estimate - expected)
        thr = 4.0 * est.stderr
        ok = stat <= thr
    return [CheckEntry(
        check_name="hyp_c", n=array.n, param=f"t={t};expected={expected}",
        statistic=stat, threshold=thr, passed=ok, stderr=est.stderr,
        seed=seed, samples=samples,
    )]


@_check("hyp_d",
        "Monte Carlo estimate of E{A(tau(t))}; must land in [t, t + 1/n] "
        "within 4 SE.  The bracket holds for deterministic clocks; a "
        "jumping clock such as the gamma clock overshoots it by O(1).",
        requires=[_T_NONNEGATIVE])
def _run_hyp_d(samples, seed, array: ArraySpec, t: float = 1.0):
    est = arrays.check_hyp_d(array, t, samples, _rng(seed))
    lo, hi = t, t + 1.0 / array.n
    stat = max(lo - est.estimate, est.estimate - hi, 0.0)
    thr = 4.0 * est.stderr
    return [CheckEntry(
        check_name="hyp_d", n=array.n,
        param=f"t={t};interval=[{lo},{hi}]", statistic=stat, threshold=thr,
        passed=stat <= thr, stderr=est.stderr, seed=seed, samples=samples,
    )]


@_check("lindeberg",
        "Closed-form truncated-second-moment statistic for the sparse "
        "two-point array across an n ladder, which must increase strictly; "
        "verdict compared with 'expect'.",
        requires=[_LADDER, _EPSILON_POSITIVE,
                  ("beta", lambda p: p["beta"] >= 0,
                   "beta must be >= 0, got {beta}"),
                  ("beta", lambda p: p["alpha"] - p["beta"] + 1.0 >= 0,
                   "delta = alpha - beta + 1 must be >= 0, got alpha={alpha} "
                   "and beta={beta}"),
                  ("n_ladder", lambda p: min(p["n_ladder"]) > 1
                   or p["alpha"] - p["beta"] + 1.0 != 0,
                   "n_ladder must be >= 2 at delta = alpha - beta + 1 = 0, "
                   "where a_n^2 = log n, got {n_ladder}")])
def _run_lindeberg(samples, seed, alpha: float = 1.0, beta: float = 0.5,
                   epsilon: float = 0.1,
                   n_ladder: list[int] = [2 ** k for k in range(10, 19, 2)],
                   expect: bool = True):
    report = arrays.check_lindeberg(alpha, beta, epsilon, n_ladder)
    final = report.statistic_by_n[n_ladder[-1]]
    ok = report.holds_in_limit == expect
    return [CheckEntry(
        check_name="lindeberg", n=n_ladder[-1],
        param=f"alpha={alpha};beta={beta};eps={epsilon};expect={expect}",
        statistic=final, threshold=1e-2 if expect else float("inf"),
        passed=ok, stderr=0.0, seed=seed, samples=1,
    )]


@_check("mcleish",
        "P{sup_{s<=t} |[M]_s - A_s| > eps} by Monte Carlo, one row per "
        "epsilon, each below 'threshold'.",
        requires=[_T_IN_ARRAY, ("epsilons", lambda p: min(p["epsilons"]) > 0,
                                "epsilons must be > 0, got {epsilons}")])
def _run_mcleish(samples, seed, array: ArraySpec, t: float = 1.0,
                 epsilons: list[float] = [0.05, 0.1, 0.2],
                 threshold: float = 0.05):
    fractions = arrays.check_mcleish(array, t, samples, _rng(seed),
                                     epsilons=epsilons)
    return [CheckEntry(
        check_name="mcleish", n=array.n, param=f"t={t};eps={e}",
        statistic=frac, threshold=threshold, passed=frac <= threshold,
        stderr=math.sqrt(max(frac * (1 - frac), 1e-12) / samples),
        seed=seed, samples=samples,
    ) for e, frac in fractions.items()]


@_check("rescaling",
        "Two-sample KS for the clock-rescaling equality in law of "
        "subordinated Brownian increments, at the 1% critical value.",
        requires=[("s", lambda p: p["s"] >= 0, "need 0 <= s < t, got s={s}"),
                  ("t", lambda p: p["s"] < p["t"],
                   "need 0 <= s < t, got s={s} and t={t}")])
def _run_rescaling(samples, seed, spec: SubordinatorSpec, s: float = 0.0,
                   t: float = 1.0):
    stat = levy.rescaling_check(spec, s, t, samples, _rng(seed))
    kind = next(k for k, cls in levy._SPEC_KINDS.items() if type(spec) is cls)
    thr = ks_critical_value(convtest._ALPHA, samples, samples)
    return [CheckEntry(
        check_name="rescaling", n=0,
        param=f"spec={kind};s={s};t={t}", statistic=stat,
        threshold=thr, passed=stat <= thr, stderr=0.0, seed=seed,
        samples=samples,
    )]


@_check("transform_cf",
        "Empirical CF of the weighted martingale transform at time t "
        f"against the weighted-clock quadrature oracle; 'profile' is one of "
        f"{', '.join(arrays._PROFILES)}.",
        requires=[_T_POSITIVE, _N_POSITIVE, (
            "profile", lambda p: p["profile"] in arrays._PROFILES,
            f"key 'profile' must be one of {', '.join(arrays._PROFILES)}, "
            'not "{profile}"')])
def _run_transform_cf(samples, seed, n: int = 128, t: float = 1.0,
                      profile: str = "two_plus_cos", threshold: float = 0.03):
    weight = arrays.deterministic_profile(profile)
    base = arrays.LinnikArray(n=n, horizon=t)
    entry = convtest.transform_cf_test(base, weight, t, samples, _rng(seed),
                                       _CF_GRID, threshold)
    return [entry]


@_check("standardization",
        "Two-sample KS of M(t)/sqrt(A(t)) against standard normal draws at "
        "the 1% critical value.", requires=[_T_IN_ARRAY])
def _run_standardization(samples, seed, array: ArraySpec, t: float = 1.0):
    return [convtest.standardization_test(array, t, samples, _rng(seed))]


@_check("lenglart",
        "Empirical maximal-inequality bound P(sup M^2 >= eps) <= eta/eps + "
        "P(A(t) >= eta) within 3 joint SEs.",
        requires=[_EPSILON_POSITIVE,
                  ("eta", lambda p: p["eta"] > 0, "eta must be > 0, got {eta}"),
                  _T_IN_ARRAY])
def _run_lenglart(samples, seed, array: ArraySpec, epsilon: float = 1.0,
                  eta: float = 0.5, t: float = 1.0):
    return [convtest.lenglart_check(array, epsilon, eta, t, samples,
                                    _rng(seed))]


@_check("tightness",
        "Modulus-exceedance table for the deterministic composition family; "
        f"diagnostic rows only, no asymptotic verdict.  'kind' is one of "
        f"{', '.join(_KINDS)}.",
        requires=[("kind", lambda p: p["kind"] in _KINDS,
                   f"key 'kind' must be one of {', '.join(_KINDS)}, "
                   'not "{kind}"'),
                  ("delta_list", lambda p: min(p["delta_list"]) > 0,
                   "delta_list must be > 0, got {delta_list}"),
                  _N_LIST, _T_FIXTURE, _EPSILON_POSITIVE])
def _run_tightness(samples, seed, kind: str = "M",
                   n_list: list[int] = [3, 5, 10],
                   delta_list: list[float] = [0.5, 0.25], T: float = 2.0,
                   epsilon: float = 0.5):
    kind = TripleKind(kind)
    report = skorohod.empirical_tightness(
        lambda n, r: fixtures.composed_ramp(n), kind, n_list, delta_list,
        T, epsilon, samples=1,
    )
    # diagnostic table only: exceedance fractions are reported, never
    # converted into an asymptotic claim
    return [CheckEntry(
        check_name="tightness", n=e.n,
        param=f"kind={kind.value};delta={e.delta};eps={epsilon}",
        statistic=e.exceed_fraction, threshold=1.0,
        passed=e.exceed_fraction <= 1.0, stderr=0.0, seed=seed,
        samples=e.samples,
    ) for e in report.entries]


# -- config handling -------------------------------------------------------


_GAP = re.compile(r"[\s,:]*")
_DECODE = json.JSONDecoder().raw_decode


def _key_lines(raw: str, p: int) -> dict[str, tuple[int, int]]:
    """{key: (its line, offset of its value)} for the keys of the JSON
    object at ``raw[p]``, nested objects' keys left out."""
    out = {}
    p = _GAP.match(raw, p + 1).end()
    while raw[p] != "}":
        key, p_value = _DECODE(raw, p)
        p_value = _GAP.match(raw, p_value).end()
        out[key] = (raw.count("\n", 0, p) + 1, p_value)
        p = _GAP.match(raw, _DECODE(raw, p_value)[1]).end()
    return out


def _params(chk: dict, line=lambda key: 1) -> dict:
    """Runner keywords for one check: every key read as its parameter's
    annotation says, defaults filled in; ``line(key)`` places an error."""
    name, rows = chk["name"], _REGISTRY[chk["name"]][2]
    out = {key: default for key, (_, default) in rows.items()}
    for key, value in chk.items():
        if key == "samples" and (type(value) is not int or value < 1):
            raise ConfigError("samples must be an int >= 1", line(key))
        if key in rows:
            typ = rows[key][0]
            try:
                out[key] = _read(value, typ, arrays._FAMILIES, f"key {key!r}")
            except PathDomainError as exc:
                bad = f"bad {key!r} object: " if typ in arrays._FAMILIES else ""
                raise ConfigError(f"{bad}{exc}", line(key))
        elif key not in ("name", "samples"):
            raise ConfigError(f"unknown key {key!r} for check {name!r}",
                              line(key))
    for key, value in out.items():
        if value is inspect.Parameter.empty:
            raise ConfigError(f"check {name!r} requires {key!r}", line("name"))
    for key, holds, message in _REQUIRES[name]:
        if not holds(out):
            raise ConfigError(message.format(**out), line(key))
    return out


#: the top-level config keys and their JSON types; all but output_dir
#: are required
_TOP_KEYS = {"experiment_id": str, "seed": int, "samples": int,
             "checks": list, "output_dir": str}


def load_config(path: Path) -> dict:
    """Read a config and check it whole, every key of every check against
    its registry row, before anything runs."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    top = _key_lines(raw, _GAP.match(raw).end())
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"key {key!r} is unknown; the keys are "
                              f"{', '.join(_TOP_KEYS)}", line=top[key][0])
    for key, typ in _TOP_KEYS.items():
        if key not in doc and key != "output_dir":
            raise ConfigError(f"missing required key {key!r}")
        if key in doc and type(doc[key]) is not typ:  # a bool is no int
            raise ConfigError(f"key {key!r} must be {typ.__name__}",
                              line=top[key][0])
    # the report is written to <output dir>/<experiment_id>
    if (doc["experiment_id"] in ("", ".", "..")
            or any(c in doc["experiment_id"] for c in "/\\\0")):
        raise ConfigError("key 'experiment_id' must be one path component: "
                          "not empty, '.' or '..', and no '/', '\\' or NUL",
                          line=top["experiment_id"][0])
    if doc["samples"] < 1:
        raise ConfigError("samples must be >= 1", line=top["samples"][0])
    if not doc["checks"]:
        raise ConfigError("checks must be non-empty", line=top["checks"][0])
    p = top["checks"][1] + 1  # walk the checks array item by item
    for i, chk in enumerate(doc["checks"]):
        p = _GAP.match(raw, p).end()
        if not isinstance(chk, dict) or "name" not in chk:
            raise ConfigError(f"check #{i} must be an object with a 'name'",
                              line=top["checks"][0])
        keys = _key_lines(raw, p)
        p = _DECODE(raw, p)[1]
        start = keys["name"][0]
        if type(chk["name"]) is not str:
            raise ConfigError("check name must be a string, got "
                              f"{json.dumps(chk['name'])}", line=start)
        if chk["name"] not in _REGISTRY:
            raise ConfigError(f"unknown check {chk['name']!r}", line=start)
        _params(chk, lambda key: keys[key][0] if key in keys else start)
    return doc


def run_experiment(config: dict, jobs: int = 1,
                   samples_scale: float = 1.0,
                   master_seed: int | None = None,
                   check_s: list | None = None) -> ConvergenceReport:
    """Execute all checks of a config and assemble the report in config
    order.  ``check_s``, if given, gets each check's wall time in seconds
    appended, in config order; a check's time includes the items of its
    :func:`_spread` calls that other workers ran."""
    seed = config["seed"] if master_seed is None else master_seed
    experiment_id = config["experiment_id"]
    report = ConvergenceReport(experiment_id=experiment_id, seed=seed,
                               samples=config["samples"])

    def one(index_and_cfg):
        index, cfg = index_and_cfg
        base = cfg.get("samples", config["samples"])
        # scaling keeps at least 10 replicates, or all asked for if fewer
        eff = max(min(base, 10), int(round(base * samples_scale)))
        chk_seed = derive_seed(seed, experiment_id, cfg["name"], index)
        runner = _REGISTRY[cfg["name"]][0]
        start = time.perf_counter()
        entries = runner(eff, chk_seed, **_params(cfg))
        return entries, time.perf_counter() - start

    global _POOL
    items = list(enumerate(config["checks"]))
    if jobs <= 1:
        results = [one(item) for item in items]
    else:
        # the workers take the items of the checks' _spread calls too
        try:
            with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
                _POOL = pool
                results = list(pool.map(one, items))
        finally:
            _POOL = None
    for entries, seconds in results:
        for entry in entries:
            report.add(entry)
        if check_s is not None:
            check_s.append(seconds)
    return report


def write_report(report: ConvergenceReport, output_dir: Path,
                 metadata: dict) -> Path:
    out = output_dir / report.experiment_id
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.csv").write_text(report.to_csv())
    (out / "metadata.json").write_text(
        json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    return out


# -- command line ----------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB of 2^20 bytes;
    ``ru_maxrss`` counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _git_revision() -> Optional[str]:
    """The HEAD commit of the git checkout that tracks this package; None
    outside git, without a git command, or for an untracked copy, such as
    one installed under an ignored directory of another repository."""
    # imported here, where only ``run`` pays for it: the import costs about
    # 2.6 ms of each process's start
    import subprocess

    def git(*args):
        return subprocess.run(["git", *args], cwd=Path(__file__).parent,
                              capture_output=True, text=True, timeout=10)

    try:
        if git("ls-files", "--error-unmatch", "__init__.py").returncode:
            return None
        done = git("rev-parse", "HEAD")
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


@click.group()
def cli():
    """Reproducible stochastic-process experiments and checks."""


@cli.command()
@click.argument("config_path", type=click.Path(path_type=Path))
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Concurrent checks; the workers also take ecf_linnik's "
                   "n-ladder rungs.  Does not affect any statistic.")
@click.option("--samples-scale", type=float, default=1.0, show_default=True,
              help="Multiplier on every sample count (0.1 for a fast "
                   "pass); a scaled count is at least min(count, 10).")
@click.option("--output-dir", type=click.Path(path_type=Path), default=None,
              help="Report directory (default: config output_dir or 'runs').")
def run(config_path: Path, jobs: int, samples_scale: float,
        output_dir: Path | None):
    """Run every check of an experiment config and write reports.

    Exit status: 0 all checks pass, 2 at least one check fails, 1 config or
    runtime error.
    """
    if jobs < 1 or not 0 < samples_scale < math.inf:
        click.echo(f"config error: need --jobs >= 1 and a finite "
                   f"--samples-scale > 0, got {jobs} and {samples_scale}",
                   err=True)
        sys.exit(1)
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"{config_path}:{exc.line}: config error: {exc}", err=True)
        sys.exit(1)

    master_seed = None
    env_seed = os.environ.get(MASTER_SEED_ENV)
    if env_seed is not None:
        try:
            master_seed = int(env_seed)
        except ValueError:
            click.echo(f"config error: {MASTER_SEED_ENV} must be an integer",
                       err=True)
            sys.exit(1)
        click.echo(
            f"warning: master seed overridden to {master_seed} via "
            f"{MASTER_SEED_ENV}; golden reports will not match", err=True)

    # made before any check runs, so that an unwritable one fails at once
    out_base = output_dir or Path(config.get("output_dir", "runs"))
    out = out_base / config["experiment_id"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"cannot write report to '{out}': {exc.strerror or exc}",
                   err=True)
        sys.exit(1)

    check_s = []
    try:
        report = run_experiment(config, jobs=jobs,
                                samples_scale=samples_scale,
                                master_seed=master_seed, check_s=check_s)
    except Exception as exc:  # noqa: BLE001 - runtime errors map to exit 1
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(1)

    metadata = {
        "config_path": str(config_path),
        "jobs": jobs,
        "samples_scale": samples_scale,
        "seed_overridden": master_seed is not None,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        # byte-identical reports are promised for one numpy version only
        "peak_rss_mb": _peak_rss_mb(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "git_revision": _git_revision(),
        # wall seconds per check, in config order, each with its rungs run
        # on other workers; under --jobs > 1 the checks overlap, so these
        # may sum to more than the run took
        "check_s": check_s,
    }
    try:
        write_report(report, out_base, metadata)
    except OSError as exc:
        click.echo(f"cannot write report to '{out}': {exc.strerror or exc}",
                   err=True)
        sys.exit(1)

    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        click.echo(f"{status} {e.check_name} n={e.n} {e.param} "
                   f"stat={e.statistic:.6g} thr={e.threshold:.6g}")
    click.echo(f"report: {out / 'report.json'}")
    sys.exit(0 if report.all_passed else 2)


@cli.command("list-checks")
def list_checks():
    """List every available check with a one-line description."""
    for name in sorted(_REGISTRY):
        click.echo(f"{name}: {_REGISTRY[name][1]}")


@cli.command()
@click.argument("check_name")
def describe(check_name: str):
    """Describe one check and its config parameters."""
    if check_name not in _REGISTRY:
        click.echo(f"unknown check {check_name!r}; see 'list-checks'",
                   err=True)
        sys.exit(1)
    _, description, params = _REGISTRY[check_name]
    click.echo(check_name)
    click.echo(f"  {description}")
    click.echo("  parameters:")
    for key, (typ, default) in params.items():
        if typ in arrays._FAMILIES:
            typ = f"{arrays._FAMILIES[typ][0]} object"
        shown = ("required" if default is inspect.Parameter.empty
                 else f"default {json.dumps(default)}")
        click.echo(f"    {key}: {typ} ({shown})")


def main():
    cli()


if __name__ == "__main__":
    main()
