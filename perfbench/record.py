"""Run every workload on several seeds and write ``perfbench/baseline.json``.

Run from the root of the repository:

    python3 perfbench/record.py [--seeds 1,2,...,10] [--seconds 20]

For each workload it records every end-to-end metric over the seeds (the
values, their median and their quartile spread as a share of the median,
which should stay under a third of the metric's bound in
``BENCHMARK.json``), the per-layer metrics of one traced run, each
layer's share of the traced pass against the share predicted for it, and
the provenance of the measurement.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import shares as layer_shares

HERE = Path(__file__).resolve().parent

# layer shares of a traced pass the workloads were designed for
PREDICTED_SHARES = {
    "suite": {"weights": 0.87},
    "margins": {"margins": 0.70, "weights": 0.29},
    "constants": {"optimize.p2": 0.5, "optimize.genp": 0.5},
}
SHARE_TOLERANCE = 0.15  # a share further off than this means: rework the mix


def bench(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    """The result line of one run and the record it wrote to ``out/``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"git_commit": git_commit(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            line, record = bench(wl, seed, seconds, 0)
            runs.append(line)
            print(wl, seed, {k: round(v["value"], 5) for k, v in line["metrics"].items()},
                  flush=True)
        out["provenance"] = record["provenance"]
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else None
            end_to_end[name] = {
                "median": statistics.median(values),
                "spread": s,
                "bound": bound,
                "steady": s is not None and (name == "setup_s" or s < bound / 3),
                "values": values,
            }
        traced, _ = bench(wl, seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = layer_shares(layers, layers["trace.wall_s"])
        checks = {
            layer: {"predicted": want, "measured": shares[layer],
                    "holds": abs(shares[layer] - want) <= SHARE_TOLERANCE}
            for layer, want in PREDICTED_SHARES[wl].items()
        }
        out["workloads"][wl] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": layers,
            "shares": shares,
            "predicted_shares": checks,
            "trace_overhead_share": layers["trace.overhead_s"]
            / (layers["trace.wall_s"] - layers["trace.overhead_s"]),
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for wl, res in out["workloads"].items():
        steady = all(m["steady"] for m in res["end_to_end"].values())
        print(wl, "correct" if res["correct"] else "INCORRECT",
              "steady" if steady else "NOT STEADY",
              {k: round(v["spread"], 4) for k, v in res["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
