"""Run one workload over several seeds and print each end-to-end metric's
median and quartile spread (distance between the first and third
quartile as a share of the median), the figure the bounds in
BENCHMARK.json are checked against; the host-sensitive metrics of the
record line follow, without a bound.

    python3 perfbench/spread.py --workload train_c4 --seeds 1-5

Runs are sequential, each in a fresh process, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        record, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {record['info']['checks_failed']}", file=sys.stderr)
        for name, metric in (result["metrics"] | record["info"]["host_sensitive"]).items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:16s} median {median:10.4f}  spread {spread:.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
