"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR RESULT_FILE TRACE

Set-up is timed as the issuing process sees it: interpreter start, then
``import cadlab.cli``, then ``cli.load_config``.  This process writes the
CLOCK_MONOTONIC reading at which set-up ended into RESULT_FILE, beside
``wall_s``, ``cpu_s`` and the peak RSS of the measured phase, every
report entry with its verdict, and a host probe timed just before the
measured phase.  With TRACE = 1 it also records spans around
the calls into each layer and writes them to OUT_DIR/spans.jsonl.
Exit status 3 means set-up failed: the program could not be imported or
its config could not be loaded.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

#: fraction of every sample count in the shipped linnik.json that a
#: repetition runs; the full config takes about 20 s at --jobs 1
LINNIK_SCALE = 0.25
CLI_WORKLOADS = {
    "linnik_j1": (ROOT / "src" / "cadlab" / "configs" / "linnik.json", 1,
                  LINNIK_SCALE),
    "linnik_j2": (ROOT / "src" / "cadlab" / "configs" / "linnik.json", 2,
                  LINNIK_SCALE),
    "mix": (BENCH / "mix.json", 1, 1.0),
}


def calibrate(repeat: int = 3) -> dict:
    """Fixed pure-Python and numpy kernels, best of ``repeat``, in ms."""
    import numpy as np

    def best(fn):
        times = []
        for _ in range(repeat):
            t = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t) * 1e3)
        return min(times)

    data = np.random.default_rng(0).random(1_000_000)
    return {"python_ms": best(lambda: sum(i * i % 7 for i in range(300_000))),
            "numpy_ms": best(lambda: np.sort(data))}


def seeded_config(source: Path, seed: int, out: Path) -> Path:
    """Copy of a config with its own ``seed`` key set to the workload seed."""
    doc = json.loads(source.read_text())
    doc["seed"] = seed
    path = out / f"{source.stem}.seed{seed}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def main(argv) -> int:
    workload, seed, out, result_file, trace = argv
    seed, out, trace = int(seed), Path(out), trace == "1"
    out.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import cadlab.levy  # noqa: F401 - timed as a fresh import
        t1 = time.perf_counter()
        from cadlab import cli
        if not Path(cadlab.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"cadlab imported from {cadlab.__file__}")
        source, jobs, scale = CLI_WORKLOADS[workload]
        config_path = seeded_config(source, seed, out)
        t2 = time.perf_counter()
        config = cli.load_config(config_path)
        t3 = time.perf_counter()
    except Exception:  # noqa: BLE001 - any set-up failure ends the run
        traceback.print_exc()
        return 3
    result = {"ready": time.monotonic(), "levy_import_s": t1 - t0,
              "load_config_ms": (t3 - t2) * 1e3}

    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    # the host's speed just before the measured phase, so that a slow
    # repetition can be told apart from a slow host
    result["probe"] = calibrate(repeat=1)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(f"{workload}-seed{seed}-{out.name}")
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        report = cli.run_experiment(config, jobs=jobs, samples_scale=scale)
        cli.write_report(report, out, {"workload": workload, "seed": seed,
                                       "jobs": jobs, "samples_scale": scale})
    except Exception:  # noqa: BLE001 - reported as failed operations
        result["error"] = traceback.format_exc()
        traceback.print_exc()
    w1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    result.update(wall_s=w1 - w0, cpu_s=cpu,
                  peak_rss_mb=ru1.ru_maxrss / 1024.0)
    if "error" not in result:
        blob = (out / report.experiment_id / "report.json").read_bytes()
        result["report_sha256"] = hashlib.sha256(blob).hexdigest()
        result["entries"] = [[e.check_name, e.n, e.param, e.passed]
                             for e in report.entries]
    if tracer is not None:
        from tracing import layer_metrics
        layers = layer_metrics(tracer.spans, w0, w1, cpu)
        layers["levy.import_s"] = [result["levy_import_s"], "fresh import"]
        layers["cli.load_config_ms"] = [result["load_config_ms"],
                                        config_path.name]
        result["layers"] = layers
        tracer.dump(out / "spans.jsonl")
    Path(result_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
