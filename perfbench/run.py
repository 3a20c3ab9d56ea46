"""Run one workload of the sshr benchmark and print its result.

    python3 perfbench/run.py --workload train_b0 --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. BLAS and OpenMP are pinned to one thread before numpy
loads. The last line of standard output is the result JSON (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``); the
line before it holds the environment record, sample counts, the output
digest and the names of failed checks. Both, and with ``--trace 1`` the
spans, are also written under ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import ``sshr`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "sshr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sshr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sshr

    if not Path(sshr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: sshr imported from {sshr.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((SRC / "sshr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="corpus, model and training seed")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "_work" / f"{tag}-{os.getpid()}"
    results = HERE / "_results"
    results.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), str(workdir))
    try:
        result, info = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(), **info}
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if run.tracer:
        run.tracer.write(results / f"{tag}-spans.jsonl.gz")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
