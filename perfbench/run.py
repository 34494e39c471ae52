"""cadlab benchmark: one workload, measured for a fixed time, with its
outputs checked.

    python3 perfbench/run.py --workload linnik_j1 --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (perfbench/worker.py), so set-up
time and peak RSS are those of one process.  Repetitions run one after the
other for about ``--seconds``, and at least three run; every metric is the
median over the repetitions.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics, the share of ``wall_s`` the
spans cover and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else a run leaves goes to perfbench/out/ (results, spans and
the reports of every repetition).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import COUNT_METRICS, LAYER_METRICS  # noqa: E402
from worker import CLI_WORKLOADS, LINNIK_SCALE, calibrate  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "cpu_s": "s"}
DEFAULT_SEED = 20260824
MIN_REPEATS = 3
MIN_TRACED = 2
#: no repetition starts after this many seconds, and none may outlive the
#: run's deadline; a run must end within 180 s
START_LIMIT_S = 120.0
DEADLINE_S = 170.0


def workload_seed(seed: int, verdicts: dict) -> int:
    """The seed the workload runs with.

    The statistical checks of the CLI workloads are gated against verdicts
    recorded per seed (perfbench/verdicts.json).  A seed without a record
    selects one of the recorded seeds, so every run has verdicts to check.
    """
    pool = verdicts["seeds"]
    return seed if seed in pool else pool[seed % len(pool)]


def fingerprint(versions: dict) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or rev
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform(),
            "git_revision": rev, **versions}


def spawn(workload: str, seed: int, rep_dir: Path, trace: bool,
          deadline: float) -> dict:
    """Run one repetition; returns its result, with ``setup_s`` added."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    result_file = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(rep_dir), str(result_file), "1" if trace else "0"]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc = None
    result = {"traced": trace, "rep_s": time.monotonic() - t_spawn}
    if proc is not None and proc.returncode == 3:
        sys.exit(f"{workload}: set-up failed, see the worker's message above")
    if proc is None or proc.returncode != 0 or not result_file.exists():
        status = "timed out" if proc is None else proc.returncode
        result["error"] = f"worker failed: {status}"
        return result
    result.update(json.loads(result_file.read_text()))
    result["setup_s"] = result["ready"] - t_spawn
    return result


def gate(workload: str, wseed: int, reps: list[dict],
         verdicts: dict) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, notes) over all repetitions.

    One operation per report entry.  An entry fails when its verdict
    differs from the one recorded for the seed; every entry of a repetition
    fails when its report.json differs from the first repetition's.  A
    repetition that raised fails all of its operations.  Every entry of a
    linnik run fails when its report.json differs from one that an earlier
    linnik run, at the other --jobs setting, wrote in this checkout for the
    same seed and the same program (see :func:`program_key`).
    """
    notes: list[str] = []
    family = "linnik" if workload.startswith("linnik") else "mix"
    expected = verdicts[family][str(wseed)]
    attempted = failed = 0
    first = next((r["report_sha256"] for r in reps if "report_sha256" in r),
                 None)
    for r in reps:
        attempted += len(expected)
        if "error" in r:
            failed += len(expected)
            notes.append(r["error"].strip().splitlines()[-1])
            continue
        if r["report_sha256"] != first:
            failed += len(expected)
            notes.append("report.json differs between repetitions")
            continue
        got = r["entries"]
        bad = [e for e, x in zip(got, expected) if e != x]
        bad_count = len(bad) + abs(len(got) - len(expected))
        failed += bad_count
        notes += [f"verdict differs from record: {e}" for e in bad]
        if len(got) != len(expected):
            notes.append(f"{len(got)} entries, {len(expected)} recorded")
    if family == "linnik" and first is not None:
        store = OUT / "report_digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        earlier = known.setdefault(
            f"linnik|seed={wseed}|scale={LINNIK_SCALE}|{program_key(reps)}",
            {})
        differ = sorted(w for w, sha in earlier.items() if sha != first)
        if differ:
            failed = attempted
            notes.append(f"report.json differs from earlier {differ} runs")
        elif earlier:
            notes.append(f"report.json identical to earlier {sorted(earlier)}"
                         f" runs")
        earlier.setdefault(workload, first)
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return attempted, failed, notes


def program_key(reps: list[dict]) -> str:
    """Identifies the program a run measured: a digest of every file under
    src/cadlab plus the Python and numpy versions.  Reports are compared
    across runs only when this key matches, so a change to the sources, or
    a numpy upgrade, starts a new comparison instead of failing it."""
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "cadlab"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(pkg).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    versions = next(r["versions"] for r in reps if "versions" in r)
    return (f"src={digest.hexdigest()[:16]}|python={versions['python']}"
            f"|numpy={versions['numpy']}")


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(CLI_WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cadlab" / "__init__.py").is_file():
        print(f"no cadlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    verdicts = json.loads((BENCH / "verdicts.json").read_text())
    wseed = workload_seed(args.seed, verdicts)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    run_dir = OUT / "runs" / name
    run_dir.mkdir(parents=True, exist_ok=True)

    probe_before = calibrate()
    # compiles bytecode and fills the page cache, so no repetition pays
    # for a first import in a fresh checkout
    warm = subprocess.run([sys.executable, "-c", "import cadlab.cli"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          stdout=subprocess.DEVNULL)
    if warm.returncode != 0:
        print("cannot import cadlab.cli", file=sys.stderr)
        return 1

    start = time.monotonic()
    reps: list[dict] = []
    need_untraced = 1 if args.trace else MIN_REPEATS
    need_traced = MIN_TRACED if args.trace else 0
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(not r["traced"] for r in reps)
        enough = (untraced >= need_untraced
                  and len(reps) - untraced >= need_traced)
        # stop before a repetition that would end past --seconds
        if enough and elapsed + reps[-1]["rep_s"] > args.seconds:
            break
        if elapsed >= START_LIMIT_S:
            break
        trace = bool(args.trace) and len(reps) % 2 == 1
        reps.append(spawn(args.workload, wseed, run_dir / f"rep{len(reps)}",
                          trace, start + DEADLINE_S))
    probe_after = calibrate()

    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        print("no repetition completed", file=sys.stderr)
        return 1
    attempted, failed, notes = gate(args.workload, wseed, reps, verdicts)
    plain = [r for r in timed if not r["traced"]]
    e2e = {m: median([r[m] for r in plain]) for m in END_TO_END}

    lines = [
        f"workload {args.workload}  seed {args.seed} (workload seed {wseed})"
        f"  repetitions {len(plain)} untraced, {len(timed) - len(plain)} "
        f"traced",
        f"ops_total {attempted}  failed {failed}  "
        f"fail_frac {failed / attempted:.4g}",
    ]
    lines += [f"  {n}" for n in notes[:20]]
    if args.trace:
        traced_reps = [r for r in timed if r["traced"]]
        if not traced_reps:
            print("no traced repetition completed", file=sys.stderr)
            return 1
        layers = {}
        for m in LAYER_METRICS:
            values = [r["layers"][m][0] for r in traced_reps
                      if m in r["layers"]]
            # counts are exact: report one, and check below that all agree
            layers[m] = values[0] if m in COUNT_METRICS else median(values)
        layers["trace.overhead_s"] = (median([r["wall_s"] for r in traced_reps])
                                      - e2e["wall_s"])
        repeat = all(r["layers"][m][0] == traced_reps[0]["layers"][m][0]
                     for r in traced_reps for m in COUNT_METRICS)
        metrics = {m: {"value": layers[m], "unit": u}
                   for m, u in LAYER_METRICS.items()}
        bases = traced_reps[0]["layers"]
        lines.append(f"per-layer metrics, median of {len(traced_reps)} traced"
                     f" repetitions; untraced wall_s {e2e['wall_s']:.4f} s")
        for m, u in LAYER_METRICS.items():
            base = bases.get(m, [0, "traced vs untraced wall_s median"])[1]
            lines.append(f"  {m:40s} {layers[m]:14.6g} {u:6s} {base}")
        lines.append(f"counts repeat across traced repetitions: "
                     f"{'yes' if repeat else 'NO'}")
    else:
        metrics = {m: {"value": e2e[m], "unit": u}
                   for m, u in END_TO_END.items()}
        for m, u in END_TO_END.items():
            vals = [r[m] for r in plain]
            lines.append(f"  {m:12s} {e2e[m]:10.4f} {u:3s} (median; min "
                         f"{min(vals):.4f}, max {max(vals):.4f})")
    lines.append("host probe before each repetition, python / numpy "
                 "kernel ms, with its wall_s: " + "  ".join(
                     f"{r['probe']['python_ms']:.0f}/"
                     f"{r['probe']['numpy_ms']:.0f} {r['wall_s']:.2f}s"
                     for r in timed))
    lines.append(
        f"drift probe: python kernel {probe_before['python_ms']:.2f} -> "
        f"{probe_after['python_ms']:.2f} ms, numpy kernel "
        f"{probe_before['numpy_ms']:.2f} -> {probe_after['numpy_ms']:.2f} ms")

    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "workload_seed": wseed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(timed[0]["versions"]),
        "drift_probe": {"before": probe_before, "after": probe_after},
        "notes": notes, "repetitions": reps, **summary,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
