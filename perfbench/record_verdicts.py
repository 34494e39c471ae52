"""Record the verdicts that the CLI workloads are gated against.

    python3 perfbench/record_verdicts.py [COUNT]

Runs the linnik config (at --jobs 1, at the benchmark's sample scale) and
the mix config once for each of COUNT seeds, 20260824 and the seeds that
follow it, and writes every report entry with its verdict to
perfbench/verdicts.json.  Verdicts are recorded as measured, failures
included.  Generator streams may change across numpy versions, so the
numpy version is recorded too; record again after upgrading numpy.
"""

import json
import sys
import time
from pathlib import Path

from run import BENCH, DEFAULT_SEED, OUT, spawn
from worker import LINNIK_SCALE


def main(count: int) -> int:
    seeds = [DEFAULT_SEED + k for k in range(count)]
    doc = {"linnik_scale": LINNIK_SCALE, "seeds": seeds,
           "linnik": {}, "mix": {}}
    work = OUT / "record" / time.strftime("%Y%m%dT%H%M%S")
    for seed in seeds:
        for family, workload in (("linnik", "linnik_j1"), ("mix", "mix")):
            r = spawn(workload, seed, work / f"{workload}-{seed}", False,
                      time.monotonic() + 170.0)
            if "error" in r:
                print(f"{workload} seed {seed}: {r['error']}", file=sys.stderr)
                return 1
            doc[family][str(seed)] = r["entries"]
            doc["versions"] = r["versions"]
            fails = [e for e in r["entries"] if not e[3]]
            print(f"{workload} seed {seed}: {len(r['entries'])} entries, "
                  f"{len(fails)} fail {fails}", flush=True)
    (BENCH / "verdicts.json").write_text(dumps(doc))
    return 0


def dumps(doc: dict) -> str:
    """JSON with one line per recorded seed, so the file diffs by seed."""
    lines = [f'  "{k}": {json.dumps(doc[k])},'
             for k in ("versions", "linnik_scale", "seeds")]
    for family in ("linnik", "mix"):
        rows = ",\n".join(f'    "{seed}": {json.dumps(entries)}'
                          for seed, entries in doc[family].items())
        lines.append(f'  "{family}": {{\n{rows}\n  }},')
    return "{\n" + "\n".join(lines).rstrip(",") + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 24))
