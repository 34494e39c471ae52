import concurrent.futures
import hashlib
import importlib.util
import inspect
import json
import os
import platform
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cadlab.cli as cli_mod
from cadlab import arrays, levy
from cadlab.cli import cli, derive_seed

CONFIG_DIR = Path(cli_mod.__file__).parent / "configs"
ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"


def invoke(args, env=None):
    runner = CliRunner()
    result = runner.invoke(cli, args, env=env, catch_exceptions=False)
    err = result.stderr if result.stderr_bytes is not None else ""
    return result, result.output + err


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return p


def small_stochastic_config(seed=123):
    return {
        "experiment_id": "smoke",
        "seed": seed,
        "samples": 50,
        "checks": [
            {"name": "hyp_c", "array": {"kind": "linnik", "n": 16,
                                        "horizon": 1.0}, "t": 0.5},
            {"name": "fdd_gamma", "n": 16, "t": 1.0, "samples": 2000},
        ],
    }


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(cli_mod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, cadlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_runtime_dependencies_are_numpy_and_click():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split("[<>=]", d)[0] for d in project["dependencies"]] == [
        "numpy", "click"]
    assert project["optional-dependencies"]["test"] == ["pytest>=7",
                                                        "scipy>=1.10"]


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "exp", "chk", 0)
    assert a == derive_seed(1, "exp", "chk", 0)
    assert a != derive_seed(1, "exp", "chk", 1)
    assert a != derive_seed(2, "exp", "chk", 0)
    assert 0 <= a < 2 ** 63


def test_run_counterexample_config_exits_zero(tmp_path):
    result, out = invoke(["run", str(CONFIG_DIR / "counterexample.json"),
                          "--output-dir", str(tmp_path)])
    assert result.exit_code == 0, out
    report = json.loads((tmp_path / "counterexample" / "report.json").read_text())
    m1 = [e for e in report["entries"] if e["check_name"] == "counterexample_m1"]
    # exact-modulus rows: statistic |modulus - 1| is exactly 0
    assert any(e["statistic"] == 0.0 and e["n"] in (3, 5, 10) for e in m1)
    assert (tmp_path / "counterexample" / "report.csv").exists()
    assert (tmp_path / "counterexample" / "metadata.json").exists()


def test_run_malformed_json_exits_one(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "experiment_id": "x",\n  "seed": oops\n}\n')
    result, out = invoke(["run", str(p)])
    assert result.exit_code == 1
    # the error message carries the offending line number
    assert f"{p}:3:" in out
    assert "malformed JSON" in out


def test_run_unknown_check_exits_one(tmp_path):
    doc = small_stochastic_config()
    doc["checks"][0] = {"name": "nope"}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p)])
    assert result.exit_code == 1
    assert "unknown check 'nope'" in out


def test_run_missing_key_exits_one(tmp_path):
    p = write_config(tmp_path, {"experiment_id": "x", "seed": 1, "samples": 5})
    result, out = invoke(["run", str(p)])
    assert result.exit_code == 1
    assert "checks" in out


def test_run_failing_check_exits_two(tmp_path):
    doc = {
        "experiment_id": "redcase",
        "seed": 7,
        "samples": 1,
        "checks": [
            # alpha=1, beta=1 does not satisfy the vanishing condition,
            # so expecting it to hold makes the check fail honestly
            {"name": "lindeberg", "alpha": 1.0, "beta": 1.0, "expect": True},
        ],
    }
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "FAIL lindeberg" in out


def test_reports_byte_identical_across_reruns_and_jobs(tmp_path):
    doc = small_stochastic_config()
    # each reads M, whose normals come from a child of the clock's
    # generator, on the jump series of 2000 paths
    standardization = {"name": "standardization", "array": {
        "kind": "linnik", "n": 16}, "t": 1.0, "samples": 2000}
    # its rungs read M too, 400 paths at n = 8, 16 and 32, and at --jobs 2
    # and 4 they are spread over the workers
    ladder = {"name": "ecf_linnik", "n_ladder": [8, 16, 32], "t": 1.0,
              "threshold": 0.5, "samples": 400}
    doc["checks"] = [ladder, *doc["checks"], standardization, standardization]
    p = write_config(tmp_path, doc)
    outs = []
    for i, jobs in enumerate(("1", "1", "4", "2")):
        d = tmp_path / f"run{i}"
        result, out = invoke(["run", str(p), "--jobs", jobs,
                              "--output-dir", str(d)])
        assert result.exit_code == 0, out
        outs.append((d / "smoke" / "report.json").read_bytes())
    assert outs[1:] == outs[:1] * 3


def test_jobs_2_replays_the_same_clock_cells_in_every_run(tmp_path):
    # two draws for M that overlap on the two workers, each of several row
    # blocks: every run draws the same clock and normals, whatever the
    # thread schedule, so it writes the --jobs 1 report
    doc = {"experiment_id": "smoke", "seed": 123, "samples": 50, "checks": [
        {"name": "standardization", "array": {"kind": "linnik", "n": 64},
         "t": 1.0, "samples": 2000},
        {"name": "standardization", "array": {"kind": "linnik", "n": 32},
         "t": 1.0, "samples": 3000}]}
    p = write_config(tmp_path, doc)
    reports = []
    for run, jobs in enumerate(("1",) + ("2",) * 5):
        d = tmp_path / str(run)
        result, out = invoke(["run", str(p), "--jobs", jobs,
                              "--output-dir", str(d)])
        assert result.exit_code == 0, out
        reports.append((d / "smoke" / "report.json").read_bytes())
    assert reports[1:] == reports[:1] * 5


#: the Python and numpy versions that REPORT_DIGESTS were recorded with;
#: numpy does not promise its streams across versions
DIGEST_VERSIONS = ("3.11.7", "2.4.6")
#: (config, --samples-scale, --jobs, exit status, sha256 of report.json).
#: A change that keeps the random streams keeps these bytes; one that
#: changes a stream on purpose records the new digests and says so.  The
#: --jobs 2 runs have the --jobs 1 runs' digests: linnik's ecf_linnik
#: rungs run on both workers, and mix's checks run on two workers.
LINNIK_DIGEST = (
    "bb10e5ff749239ddf50e19d61f33b7b303c75d556ae058814be528b59b992419")
MIX_DIGEST = (
    "54630b31651eb94589fc38bad0d1a6b0cfa94bf7e7167f9ea42c60cac36442c6")
REPORT_DIGESTS = [
    (CONFIG_DIR / "counterexample.json", "1.0", "1", 0,
     "266674ef44afdf57ee7f221ec4b8ceff9379825b338a53250430f86146a446c1"),
    (CONFIG_DIR / "linnik.json", "0.05", "1", 0, LINNIK_DIGEST),
    (BENCH_DIR / "mix.json", "0.1", "1", 2, MIX_DIGEST),
    (CONFIG_DIR / "linnik.json", "0.05", "2", 0, LINNIK_DIGEST),
    (BENCH_DIR / "mix.json", "0.1", "2", 2, MIX_DIGEST),
]


@pytest.mark.skipif(
    (platform.python_version(), np.__version__) != DIGEST_VERSIONS,
    reason="report digests were recorded on Python %s with numpy %s"
           % DIGEST_VERSIONS)
@pytest.mark.parametrize("config, scale, jobs, status, digest",
                         REPORT_DIGESTS,
                         ids=["counterexample", "linnik", "mix",
                              "linnik_jobs2", "mix_jobs2"])
def test_report_bytes_match_recorded_digests(tmp_path, config, scale, jobs,
                                             status, digest):
    result, out = invoke(["run", str(config), "--jobs", jobs,
                          "--samples-scale", scale,
                          "--output-dir", str(tmp_path)])
    assert result.exit_code == status, out
    [report] = tmp_path.glob("*/report.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


#: the seed of the benchmark's verdict gate that the mix case below runs
VERDICT_SEED = 20260824
#: the benchmark's recorded verdicts, which the test below only reads
RECORDED_VERDICTS = json.loads((BENCH_DIR / "verdicts.json").read_text())


@pytest.mark.skipif(
    (platform.python_version(), np.__version__) != DIGEST_VERSIONS,
    reason="verdicts were recorded on Python %s with numpy %s"
           % DIGEST_VERSIONS)
@pytest.mark.parametrize("family, config, seeds", [
    ("linnik", CONFIG_DIR / "linnik.json", RECORDED_VERDICTS["seeds"]),
    ("mix", BENCH_DIR / "mix.json", [VERDICT_SEED]),
], ids=["linnik", "mix"])
def test_report_verdicts_match_the_benchmark_record(family, config, seeds):
    # perfbench fails a run whose (check, n, param, passed) rows differ
    # from perfbench/verdicts.json: a stream change that would flip a
    # recorded verdict fails here first.  The linnik config runs at the
    # recorded sample scale for every recorded seed (about 8 s), mix at its
    # full size for one seed (about 1 s).  Of mix's checks, lenglart and
    # transform_cf read a gamma clock's jump series (a running sup and a
    # profile transform); they run at every recorded seed too (about 3 s),
    # each with the seed that run_experiment derives for it.  Their
    # statistics read about -0.8 against about 0.012, and 0.005-0.013
    # against 0.03
    scale = RECORDED_VERDICTS["linnik_scale"] if family == "linnik" else 1.0
    doc = cli_mod.load_config(config)
    for seed in seeds:
        report = cli_mod.run_experiment(doc, samples_scale=scale,
                                        master_seed=seed)
        rows = [[e.check_name, e.n, e.param, e.passed]
                for e in report.entries]
        assert rows == RECORDED_VERDICTS[family][str(seed)], seed
    if family != "mix":
        return
    series = [(i, c) for i, c in enumerate(doc["checks"])
              if c["name"] in ("lenglart", "transform_cf")]
    assert [i for i, _ in series] == [3, 6]
    for seed in RECORDED_VERDICTS["seeds"]:
        recorded = RECORDED_VERDICTS[family][str(seed)]
        for index, cfg in series:
            runner = cli_mod._REGISTRY[cfg["name"]][0]
            [entry] = runner(cfg.get("samples", doc["samples"]),
                             derive_seed(seed, doc["experiment_id"],
                                         cfg["name"], index),
                             **cli_mod._params(cfg))
            row = [entry.check_name, entry.n, entry.param, entry.passed]
            assert [r for r in recorded if r[:3] == row[:3]] == [row], seed


def test_a_drifted_array_gives_its_base_rows(tmp_path):
    # a drifted array reads its base's stream, and for M and A a gamma
    # clock's jump series, as its base does; mu moves only O and N, which
    # no check reads, so a drifted Linnik array gives its base's rows
    def rows(array):
        doc = {"experiment_id": "drift", "seed": 9, "samples": 3000,
               "checks": [{"name": "standardization", "array": array},
                          {"name": "lenglart", "array": array}]}
        report = cli_mod.run_experiment(cli_mod.load_config(
            write_config(tmp_path, doc)))
        return [e.row() for e in report.entries]

    base = {"kind": "linnik", "n": 32}
    got = rows(base)
    assert [r[0] for r in got] == ["standardization", "lenglart"]
    assert rows({"kind": "drifted", "base": base, "mu": 1.5}) == got


def ladder_config(n_ladder=(8, 16, 32)):
    return {"experiment_id": "ladder", "seed": 5, "samples": 300, "checks": [
        {"name": "ecf_linnik", "n_ladder": list(n_ladder), "t": 1.0,
         "threshold": 0.5},
        {"name": "fdd_gamma", "n": 16, "t": 1.0}]}


def test_spread_returns_results_in_item_order(monkeypatch):
    def square(x):
        time.sleep(0.01 * (x % 3))
        return x * x
    assert cli_mod._spread(square, range(7)) == [x * x for x in range(7)]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(cli_mod, "_POOL", pool)
        assert cli_mod._spread(square, range(7)) == [x * x for x in range(7)]


def test_spread_runs_the_items_no_worker_started_last_first(monkeypatch):
    started, free = [], threading.Event()

    def start(x):
        started.append((x, threading.get_ident()))
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        # the only worker is taken; the timeout ends a wait for it
        busy = pool.submit(free.wait, 30)
        monkeypatch.setattr(cli_mod, "_POOL", pool)
        assert cli_mod._spread(start, range(4)) == [None] * 4
        free.set()
        busy.result()
    assert started == [(x, threading.get_ident()) for x in (3, 2, 1, 0)]


NESTED_SPREAD_SCRIPT = """
import concurrent.futures, threading
from cadlab import cli
both_in = threading.Barrier(2)
def check(k):
    both_in.wait()  # each worker is inside a check when it spreads
    return cli._spread(lambda x: (k, x), list(range(5)))
with concurrent.futures.ThreadPoolExecutor(2) as pool:
    cli._POOL = pool
    print(list(pool.map(check, range(2))))
"""


def test_spread_nested_on_both_workers_of_a_pool_finishes():
    # in a child process with a timeout, so that a deadlock fails this test
    # rather than hanging the suite on threads that never end
    src = str(Path(cli_mod.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", NESTED_SPREAD_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == str([[(k, x) for x in range(5)] for k in range(2)])


def test_spread_raises_an_items_exception(monkeypatch):
    def fail_on_two(x):
        if x == 2:
            raise ValueError("item 2")
        return x
    with pytest.raises(ValueError, match="item 2"):
        cli_mod._spread(fail_on_two, range(4))
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(cli_mod, "_POOL", pool)
        for _ in range(5):
            with pytest.raises(ValueError, match="item 2"):
                cli_mod._spread(fail_on_two, range(4))


def test_a_raising_rung_leaves_no_pool_budget_share_or_thread(monkeypatch):
    marginal_samples = arrays.marginal_samples

    def fail_at_16(spec, *args, **kwargs):
        if spec.n == 16:
            raise RuntimeError("rung n=16")
        return marginal_samples(spec, *args, **kwargs)
    monkeypatch.setattr(arrays, "marginal_samples", fail_at_16)
    threads = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="rung n=16"):
        cli_mod.run_experiment(ladder_config(), jobs=2)
    assert cli_mod._POOL is None
    assert set(threading.enumerate()) == threads


def test_jobs_1_runs_the_ladder_in_order_on_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("--jobs 1 started a thread")
    started = []
    marginal_samples = arrays.marginal_samples

    def record(spec, *args, **kwargs):
        started.append(spec.n)
        return marginal_samples(spec, *args, **kwargs)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(arrays, "marginal_samples", record)
    report = cli_mod.run_experiment(ladder_config(), jobs=1)
    assert started == [8, 16, 32, 16]  # the ladder, then fdd_gamma's n
    assert [e.n for e in report.entries] == [8, 16, 32, 16, 32, 16]


def test_samples_scale_changes_effective_samples(tmp_path):
    p = write_config(tmp_path, small_stochastic_config())
    d = tmp_path / "scaled"
    result, out = invoke(["run", str(p), "--samples-scale", "0.5",
                          "--output-dir", str(d)])
    assert result.exit_code == 0, out
    report = json.loads((d / "smoke" / "report.json").read_text())
    fdd = [e for e in report["entries"] if e["check_name"] == "fdd"][0]
    assert fdd["samples"] == 1000


@pytest.mark.parametrize("scale", ["1", "0.1"])
def test_samples_below_ten_are_never_raised_by_scaling(tmp_path, scale):
    # the floor of 10 replicates is no floor above what the config asks
    doc = small_stochastic_config()
    doc["samples"] = 4
    del doc["checks"][1]["samples"]
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--samples-scale", scale,
                          "--output-dir", str(tmp_path)])
    assert result.exit_code in (0, 2), out
    report = json.loads((tmp_path / "smoke" / "report.json").read_text())
    assert report["samples"] == 4
    assert [e["samples"] for e in report["entries"]] == [4, 4]


def test_master_seed_env_override_warns_and_changes_report(tmp_path):
    p = write_config(tmp_path, small_stochastic_config())
    d0, d1 = tmp_path / "base", tmp_path / "over"
    result, _ = invoke(["run", str(p), "--output-dir", str(d0)])
    assert result.exit_code == 0
    result, out = invoke(["run", str(p), "--output-dir", str(d1)],
                         env={"CADLAB_MASTER_SEED": "999"})
    assert result.exit_code == 0
    assert "warning" in out and "golden" in out
    base = json.loads((d0 / "smoke" / "report.json").read_text())
    over = json.loads((d1 / "smoke" / "report.json").read_text())
    assert over["seed"] == 999
    assert base["entries"][0]["statistic"] != over["entries"][0]["statistic"]
    meta = json.loads((d1 / "smoke" / "metadata.json").read_text())
    assert meta["seed_overridden"] is True


def test_metadata_holds_run_telemetry_and_report_does_not(tmp_path):
    p = write_config(tmp_path, small_stochastic_config())
    result, _ = invoke(["run", str(p), "--output-dir", str(tmp_path)])
    assert result.exit_code == 0
    meta = json.loads((tmp_path / "smoke" / "metadata.json").read_text())
    assert meta["peak_rss_mb"] > 1.0
    assert meta["python_version"] == platform.python_version()
    assert meta["numpy_version"] == np.__version__
    # wall seconds per check, in config order, and the checkout's HEAD
    assert len(meta["check_s"]) == 2
    assert all(s > 0 for s in meta["check_s"])
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    assert meta["git_revision"] == (head.stdout.strip() if head.returncode == 0
                                    else None)
    # report.json is what the run's report serializes to, nothing more
    report = cli_mod.run_experiment(cli_mod.load_config(p))
    text = (tmp_path / "smoke" / "report.json").read_text()
    assert text == report.to_json() + "\n"

    def no_constant(name):
        raise ValueError(f"report.json holds {name}, which JSON has not")

    # strict JSON: hyp_c without 'expected' has no threshold
    hyp_c = json.loads(text, parse_constant=no_constant)["entries"][0]
    assert hyp_c["check_name"] == "hyp_c" and hyp_c["threshold"] is None
    for key in ("peak_rss_mb", "python_version", "numpy_version",
                "check_s", "git_revision"):
        assert key not in report.to_json()


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=cwd, check=True, capture_output=True)


@pytest.mark.parametrize("where, tracked", [("pkg", True),
                                            (".venv/site/pkg", False)],
                         ids=["tracked", "ignored"])
def test_git_revision_is_the_head_of_a_checkout_that_tracks_the_package(
        tmp_path, monkeypatch, where, tracked):
    # a copy installed under an ignored directory of another repository
    # has no revision: that repository's HEAD says nothing of its code
    if subprocess.run(["git", "--version"], capture_output=True).returncode:
        pytest.skip("no git command")
    pkg = tmp_path / where
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (tmp_path / ".gitignore").write_text(".venv/\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "x")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                          capture_output=True, text=True).stdout.strip()
    monkeypatch.setattr(cli_mod, "__file__", str(pkg / "cli.py"))
    assert cli_mod._git_revision() == (head if tracked else None)


def test_master_seed_env_not_integer_exits_one(tmp_path):
    p = write_config(tmp_path, small_stochastic_config())
    result, out = invoke(["run", str(p)], env={"CADLAB_MASTER_SEED": "abc"})
    assert result.exit_code == 1
    assert "CADLAB_MASTER_SEED" in out


def test_list_checks_contains_required_names():
    result, out = invoke(["list-checks"])
    assert result.exit_code == 0
    for name in ("ecf_linnik", "hyp_c", "lindeberg", "counterexample_m1",
                 "transform_cf", "rescaling"):
        assert name in out


def test_describe_lindeberg_names_parameters():
    result, out = invoke(["describe", "lindeberg"])
    assert result.exit_code == 0
    for key in ("alpha", "beta", "epsilon", "n_ladder"):
        assert key in out


def test_describe_unknown_exits_one():
    result, out = invoke(["describe", "nothere"])
    assert result.exit_code == 1
    assert "unknown check" in out


def last_line_of(path, word):
    """Number of the last line of a written config that holds "word"."""
    lines = path.read_text().splitlines()
    return max(i for i, line in enumerate(lines, start=1)
               if f'"{word}"' in line)


@pytest.mark.parametrize("check, key", [
    ({"name": "counterexample_m1", "detla": 0.25}, "detla"),
    ({"name": "lindeberg", "expect": "false"}, "expect"),
    ({"name": "fdd_gamma", "samples": 0}, "samples"),
    ({"name": "ecf_linnik", "n_ladder": [128, 64]}, "n_ladder"),
    ({"name": "tightness", "n_list": [3, 5.5]}, "n_list"),
    ({"name": "lindeberg", "n_ladder": []}, "n_ladder"),
    ({"name": "mcleish", "array": {"kind": "linnik", "n": 16},
      "epsilons": []}, "epsilons"),
    ({"name": "ecf_linnik", "n_ladder": []}, "n_ladder"),
    # at delta = 0, a_n^2 = log n is 0 at n = 1, and the statistic inf
    ({"name": "lindeberg", "alpha": 0.5, "beta": 1.5, "n_ladder": [1, 4]},
     "n_ladder"),
    ({"name": ["hyp_c"]}, "name"),
], ids=["misspelled", "string_bool", "zero_samples", "ladder", "list_item",
        "lindeberg_empty_ladder", "mcleish_no_epsilons", "ecf_empty_ladder",
        "lindeberg_log_1", "name_not_string"])
def test_bad_check_key_exits_one_at_load_with_its_line(tmp_path, check, key):
    doc = {"experiment_id": "bad", "seed": 1, "samples": 10,
           "checks": [check]}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, key)}: config error" in out
    assert key in out
    assert "Traceback" not in out and "runtime error" not in out
    assert not (tmp_path / "o").exists()


def _bad_top_level_key_exits_one_at_load(tmp_path, key, value):
    doc = {"experiment_id": "bad", "seed": 1, "samples": 10,
           "checks": [{"name": "counterexample_m1"}], key: value}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, key)}: config error: key '{key}'" in out
    # nothing is written, inside the output directory or beside it
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("key", ["seed", "samples"])
def test_bool_seed_or_samples_exits_one_at_load_with_its_line(tmp_path, key):
    _bad_top_level_key_exits_one_at_load(tmp_path, key, True)


@pytest.mark.parametrize("key, value", [
    ("sede", 3), ("output_dir", 5),
    ("experiment_id", "../escaped"), ("experiment_id", ".."),
    ("experiment_id", "."), ("experiment_id", ""), ("experiment_id", "a/b"),
    ("experiment_id", "a\\b"), ("experiment_id", "a\0b"),
], ids=["unknown", "output_dir_int", "id_escapes", "id_dotdot", "id_dot",
        "id_empty", "id_slash", "id_backslash", "id_nul"])
def test_bad_top_level_key_exits_one_at_load_with_its_line(tmp_path, key,
                                                            value):
    _bad_top_level_key_exits_one_at_load(tmp_path, key, value)


@pytest.mark.parametrize("text, line, word", [
    (None, 1, "cannot read config"),
    ("[1, 2]\n", 1, "config root must be an object"),
    ('{"experiment_id": "x", "seed": 1,\n "samples": 0,\n'
     ' "checks": [{"name": "lindeberg"}]}\n', 2, "samples must be >= 1"),
    ('{"experiment_id": "x", "seed": 1, "samples": 10,\n "checks": []}\n',
     2, "checks must be non-empty"),
    ('{"experiment_id": "x", "seed": 1, "samples": 10,\n "checks": [3]}\n',
     2, "check #0 must be an object with a 'name'"),
], ids=["unreadable", "root_not_object", "zero_samples", "no_checks",
        "check_not_object"])
def test_bad_config_exits_one_at_load(tmp_path, text, line, word):
    p = tmp_path / "cfg.json"
    if text is not None:  # else there is no file to read
        p.write_text(text)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{line}: config error: {word}" in out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", [["--jobs", "0"], ["--jobs", "-1"],
                                    ["--samples-scale", "0"],
                                    ["--samples-scale", "-1"],
                                    ["--samples-scale", "nan"],
                                    ["--samples-scale", "inf"]],
                         ids=["jobs_0", "jobs_neg", "scale_0", "scale_neg",
                              "scale_nan", "scale_inf"])
def test_bad_jobs_or_samples_scale_exits_one(tmp_path, option):
    p = write_config(tmp_path, small_stochastic_config())
    result, out = invoke(["run", str(p), *option,
                          "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert "config error" in out and option[0] in out
    assert not (tmp_path / "o").exists()


LINNIK16 = {"kind": "linnik", "n": 16}


@pytest.mark.parametrize("check, key, word", [
    ({"name": "hyp_c", "array": {**LINNIK16, "horizn": 2.0}}, "array",
     "'horizn'"),
    ({"name": "hyp_c", "array": {**LINNIK16, "n": 16.5}}, "array", "16.5"),
    ({"name": "hyp_c", "array": {
        "kind": "transform", "base": LINNIK16,
        "weight": {"kind": "profile", "nmae": "one"}}}, "array", "'nmae'"),
    ({"name": "rescaling", "spec": {
        "kind": "composite",
        "parts": [{"kind": "gamma", "shape_rate": 1.0, "scael": 2.0}]}},
     "spec", "'scael'"),
    ({"name": "hyp_c", "array": {"kind": "linnik"}}, "array",
     "missing key 'n' for a linnik array"),
    ({"name": "rescaling", "spec": {"kind": "composite", "parts": [
        {"kind": "gamma"}]}}, "spec",
     "missing key 'shape_rate' for a gamma spec"),
    ({"name": "mcleish", "array": {
        "kind": "transform", "base": LINNIK16, "weight": {"name": "one"}}},
     "array", "missing key 'kind' for a weight"),
    ({"name": "tightness", "kind": "X"}, "kind", '"X"'),
    ({"name": "transform_cf", "profile": "X"}, "profile", '"X"'),
    # the Linnik array's clock is fixed
    ({"name": "hyp_c", "array": {**LINNIK16, "spec": {
        "kind": "gamma", "shape_rate": 1.0}}}, "array",
     "unknown key 'spec' for a linnik array"),
    # at delta = 0, a_n^2 = log n is 0 at n = 1: M is +-inf, and the sup of
    # |[M] - A| NaN, which no exceedance fraction counts
    ({"name": "mcleish", "array": {"kind": "lindeberg", "n": 1,
                                   "alpha": 0.5, "beta": 1.5}}, "array",
     "n must be >= 2 at delta = 0"),
    ({"name": "hyp_c", "array": {**LINNIK16, "kind": ["linnik"]}}, "array",
     "unknown array kind ['linnik']"),
], ids=["array_key", "array_n", "weight_key", "spec_key", "array_missing",
        "spec_missing", "weight_missing", "tightness_kind",
        "transform_profile", "linnik_spec", "lindeberg_log_1",
        "kind_not_string"])
def test_bad_object_key_or_choice_exits_one_at_load(tmp_path, check, key,
                                                    word):
    doc = {"experiment_id": "bad", "seed": 1, "samples": 10,
           "checks": [{"name": "lindeberg"}, check]}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, key)}: config error" in out
    assert word in out
    assert "Traceback" not in out and "runtime error" not in out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("check, key, word", [
    ({"name": "rescaling", "spec": {"kind": "gamma", "shape_rate": True}},
     "spec", "shape_rate must be a number, got true"),
    ({"name": "hyp_c", "array": {**LINNIK16, "horizon": True}}, "array",
     "horizon must be a number, got true"),
    ({"name": "hyp_c", "array": {**LINNIK16, "horizon": "2"}}, "array",
     'horizon must be a number, got "2"'),
    ({"name": "mcleish", "array": {
        "kind": "transform", "base": LINNIK16,
        "weight": {"kind": "random_walk", "name": "one", "sigma": True}}},
     "array", "sigma must be a number, got true"),
    ({"name": "hyp_c", "array": 3}, "array",
     "bad 'array' object: an array must be an object, got 3"),
    ({"name": "rescaling", "spec": {"kind": "composite", "parts": [3]}},
     "spec", "bad 'spec' object: a spec must be an object, got 3"),
], ids=["spec_bool", "array_bool", "array_string", "weight_bool",
        "array_not_object", "part_not_object"])
def test_bad_object_value_type_exits_one_at_load(tmp_path, check, key, word):
    doc = {"experiment_id": "bad", "seed": 1, "samples": 10,
           "checks": [{"name": "lindeberg"}, check]}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, key)}: config error" in out
    assert word in out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("check, key, word", [
    ({"name": "rescaling", "spec": {"kind": "gamma", "shape_rate": 1.0},
      "s": 1.0, "t": 1.0}, "t", "need 0 <= s < t"),
    ({"name": "rescaling", "spec": {"kind": "gamma", "shape_rate": 1.0},
      "s": -0.5}, "s", "need 0 <= s < t"),
    ({"name": "hyp_c", "array": LINNIK16, "t": 1.0}, "t",
     "t must be < the array's horizon 1.0"),
    ({"name": "hyp_d", "array": LINNIK16, "t": -1.0}, "t", "t must be >= 0"),
    ({"name": "lenglart", "array": LINNIK16, "epsilon": 0.0}, "epsilon",
     "epsilon must be > 0"),
    ({"name": "lenglart", "array": LINNIK16, "eta": -1.0}, "eta",
     "eta must be > 0"),
    ({"name": "standardization", "array": LINNIK16, "t": 0.0}, "t",
     "t must lie in (0, 1.0], got 0.0"),
    ({"name": "standardization", "array": LINNIK16, "t": 2.0}, "t",
     "t must lie in (0, 1.0], got 2.0"),
    ({"name": "transform_cf", "t": 0}, "t", "t must be > 0"),
    ({"name": "fdd_gamma", "n": 0}, "n", "n must be >= 1"),
    ({"name": "transform_cf", "n": 0}, "n", "n must be >= 1"),
    ({"name": "ecf_linnik", "n_ladder": [0, 4]}, "n_ladder",
     "n_ladder must be >= 1"),
    ({"name": "tightness", "delta_list": [-0.5]}, "delta_list",
     "delta_list must be > 0"),
    ({"name": "counterexample_m1", "n_list": [0]}, "n_list",
     "n_list must be >= 1, got [0]"),
    ({"name": "tightness", "n_list": [3, 0]}, "n_list",
     "n_list must be >= 1, got [3, 0]"),
    ({"name": "counterexample_m1", "T": 0.0}, "T",
     "T must lie in (0, 2.0], got 0.0"),
    ({"name": "tightness", "T": 2.5}, "T", "T must lie in (0, 2.0], got 2.5"),
    ({"name": "counterexample_m1", "delta": 0.0}, "delta",
     "delta must be > 0, got 0.0"),
    ({"name": "ecf_linnik", "t": 0.0}, "t", "t must be > 0, got 0.0"),
    ({"name": "fdd_gamma", "t": 0.0}, "t", "t must be > 0, got 0.0"),
    ({"name": "hyp_c", "array": LINNIK16, "t": -1.0}, "t",
     "t must be >= 0, got -1.0"),
    ({"name": "mcleish", "array": LINNIK16, "t": 0.0}, "t",
     "t must lie in (0, 1.0], got 0.0"),
    ({"name": "lenglart", "array": LINNIK16, "t": 2.0}, "t",
     "t must lie in (0, 1.0], got 2.0"),
    ({"name": "tightness", "epsilon": -1.0}, "epsilon",
     "epsilon must be > 0, got -1.0"),
    ({"name": "lindeberg", "alpha": 0.5, "beta": 2.0}, "beta",
     "delta = alpha - beta + 1 must be >= 0, got alpha=0.5 and beta=2.0"),
    ({"name": "lindeberg", "beta": -0.5}, "beta",
     "beta must be >= 0, got -0.5"),
    ({"name": "lindeberg", "epsilon": -1.0}, "epsilon",
     "epsilon must be > 0, got -1.0"),
    ({"name": "mcleish", "array": LINNIK16, "epsilons": [0.1, -1.0]},
     "epsilons", "epsilons must be > 0, got [0.1, -1.0]"),
], ids=["rescaling_t", "rescaling_s", "hyp_c", "hyp_d", "lenglart_epsilon",
        "lenglart_eta", "standardization", "standardization_past_horizon",
        "transform_cf", "fdd_gamma_n", "transform_cf_n", "ecf_ladder_n",
        "tightness_delta", "counterexample_n_list", "tightness_n_list",
        "counterexample_T", "tightness_T", "counterexample_delta",
        "ecf_linnik_t", "fdd_gamma_t", "hyp_c_negative_t", "mcleish_t",
        "lenglart_t", "tightness_epsilon", "lindeberg_delta",
        "lindeberg_beta", "lindeberg_epsilon", "mcleish_epsilons"])
def test_runner_precondition_exits_one_at_load_with_its_line(tmp_path, check,
                                                            key, word):
    # each of these ran the checks before it, then exited 1 with a
    # "runtime error" and no line, or (mcleish_t, tightness_epsilon,
    # lindeberg_beta, lindeberg_epsilon, mcleish_epsilons) reported a
    # verdict that checks nothing
    doc = {"experiment_id": "bad", "seed": 1, "samples": 10,
           "checks": [{"name": "lindeberg"}, check]}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, key)}: config error: {word}" in out
    assert "runtime error" not in out
    assert not (tmp_path / "o").exists()


MCLEISH_NAMED_WEIGHT = {"name": "mcleish", "array": {
    "kind": "transform", "base": LINNIK16,
    "weight": {"kind": "profile", "name": "one"}}}


@pytest.mark.parametrize("check, key, word", [
    ({"name": "no_such_check"}, "no_such_check", "unknown check"),
    ({"name": "hyp_c"}, "hyp_c", "check 'hyp_c' requires 'array'"),
    ({"name": "counterexample_m1", "detla": 0.25}, "detla",
     "unknown key 'detla'"),
], ids=["unknown_check", "required_key", "unknown_key"])
def test_nested_name_key_does_not_shift_later_check_lines(tmp_path, check,
                                                          key, word):
    # the weight's "name" key sits inside a check and names no check
    doc = {"experiment_id": "bad", "seed": 1, "samples": 10,
           "checks": [MCLEISH_NAMED_WEIGHT, {"name": "lindeberg"}, check]}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, key)}: config error: {word}" in out
    assert not (tmp_path / "o").exists()


def test_check_lines_follow_one_line_checks(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"experiment_id": "w", "seed": 1, "samples": 10,\n'
                 ' "checks": [\n'
                 '  ' + json.dumps(MCLEISH_NAMED_WEIGHT) + ',\n'
                 '  {"name": "lindeberg"},\n'
                 '  {"name": "no_such_check"}]}\n')
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:5: config error: unknown check 'no_such_check'" in out


def test_missing_array_fails_at_its_check_before_any_check_runs(
        tmp_path, monkeypatch):
    calls = []
    runner, *rest = cli_mod._REGISTRY["lindeberg"]
    monkeypatch.setitem(cli_mod._REGISTRY, "lindeberg",
                        (lambda *a, **k: calls.append(a) or runner(*a, **k),
                         *rest))
    doc = {"experiment_id": "noarray", "seed": 1, "samples": 10,
           "checks": [{"name": "lindeberg"}, {"name": "hyp_c", "t": 0.5}]}
    p = write_config(tmp_path, doc)
    result, out = invoke(["run", str(p), "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1, out
    assert f"{p}:{last_line_of(p, 'hyp_c')}: config error" in out
    assert "'array'" in out
    assert calls == []


def test_unwritable_output_dir_exits_one_before_any_check_runs(
        tmp_path, monkeypatch):
    calls = []
    runner, *rest = cli_mod._REGISTRY["lindeberg"]
    monkeypatch.setitem(cli_mod._REGISTRY, "lindeberg",
                        (lambda *a, **k: calls.append(a) or runner(*a, **k),
                         *rest))
    p = write_config(tmp_path, {"experiment_id": "w", "seed": 1,
                                "samples": 10, "checks": [{"name": "lindeberg"}]})
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    result, out = invoke(["run", str(p), "--output-dir", str(blocker)])
    assert result.exit_code == 1, out
    assert f"cannot write report to '{blocker / 'w'}': " in out
    assert "Traceback" not in out
    assert calls == []


def test_params_fill_defaults_and_take_an_int_for_a_float():
    params = cli_mod._params({"name": "counterexample_m1", "delta": 1})
    assert params == {"n_list": [3, 5, 10], "delta": 1.0, "T": 2.0}
    assert type(params["delta"]) is float


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")) + [BENCH_DIR / "mix.json"],
    ids=lambda p: p.name)
def test_shipped_configs_pass_load_config(path):
    config = cli_mod.load_config(path)
    assert all(chk["name"] in cli_mod._REGISTRY for chk in config["checks"])


def test_every_check_parameter_has_a_known_annotation_and_typed_default():
    for name, (_, _, params) in cli_mod._REGISTRY.items():
        for key, (typ, default) in params.items():
            assert typ in levy._VALUE_TYPES or typ in arrays._FAMILIES, (
                name, key, typ)
            if default is not inspect.Parameter.empty:
                assert levy._read(default, typ, arrays._FAMILIES,
                                  key) == default, (name, key)


def test_describe_gives_every_key_a_default_or_required():
    assert len(cli_mod._REGISTRY) == 12
    for name, (_, _, params) in cli_mod._REGISTRY.items():
        result, out = invoke(["describe", name])
        assert result.exit_code == 0
        rows = out.splitlines()[out.splitlines().index("  parameters:") + 1:]
        assert [row.split(":")[0].strip() for row in rows] == list(params)
        for row in rows:
            assert re.search(r"\((default .+|required)\)$", row), row


#: run in a fresh interpreter: mix's composite rescaling check, then its
#: transform_cf check, with VmRSS after each and ru_maxrss around both
RSS_SCRIPT = """
import json, resource, sys
from cadlab import cli

def vm_rss_mb():
    with open("/proc/self/status") as f:
        line = next(x for x in f if x.startswith("VmRSS:"))
    return int(line.split()[1]) / 1024

def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

doc = json.load(open(sys.argv[1]))
checks = [c for c in doc["checks"] if c["name"] == "rescaling"
          and c["spec"]["kind"] == "composite"]
checks += [c for c in doc["checks"] if c["name"] == "transform_cf"]
start, max_start, after = vm_rss_mb(), max_rss_mb(), []
for i, chk in enumerate(checks):
    runner = cli._REGISTRY[chk["name"]][0]
    runner(chk.get("samples", doc["samples"]), i, **cli._params(chk))
    after.append(vm_rss_mb())
print(json.dumps({"start": start, "after": after,
                  "max_rise": max_rss_mb() - max_start}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS from /proc")
def test_mix_batches_return_their_memory_between_checks():
    # this reads the process's RSS, which holds what malloc's heap keeps
    # after a check.  Neither check holds more than a few row blocks, so
    # the peak rises by at most 40 of them (10 MiB); a check that built
    # and freed one (samples, cells) array of its draw rose by 28.8 MB
    block_mb = levy._BLOCK_CELLS * 8 / 2**20
    src = str(Path(cli_mod.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", RSS_SCRIPT,
                          str(BENCH_DIR / "mix.json")],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    rss = json.loads(out)
    for mb in rss["after"]:
        assert mb - rss["start"] <= 8.0, rss
    assert rss["max_rise"] <= 40 * block_mb, rss


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_times_each_check_and_uninstalls():
    tracing = load_tracing()
    registry = dict(cli_mod._REGISTRY)
    run_experiment = cli_mod.run_experiment
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        t0 = time.perf_counter()
        config = cli_mod.load_config(CONFIG_DIR / "counterexample.json")
        report = cli_mod.run_experiment(config)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    assert report.all_passed
    names = {span[0] for span in tracer.spans}
    assert {"cli.check.counterexample_m1", "cli.check.tightness"} <= names
    metrics = tracing.layer_metrics(tracer.spans, t0, t1, cpu_s=t1 - t0)
    assert metrics["cli.check_s.counterexample_m1"][0] > 0
    assert metrics["cli.check_s.tightness"][0] > 0
    assert cli_mod._REGISTRY == registry
    assert cli_mod.run_experiment is run_experiment
