"""Benchmark of phardy's verification pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``suite`` is ``phardy run`` on the
bundled suite, ``margins`` the same with 1000 test functions per case,
``constants`` best-constant estimation through the library (p = 2
convergence study, general-p descent, interval eigenvalues, capacity
classification).

With ``--trace 0`` the run times untraced passes and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics; the traced spans go to a trace
file.  Every pass is checked against the oracles in ``workloads.py`` and
one more pass on a second seed checks that the verdicts hold there too.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; per-operation results and
spans are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing  # standard library only until its layers are installed

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9  # fresh interpreters timed per run, after one warm-up
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
MAX_MISSES_KEPT = 20  # failed operations listed in the run's record


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the number of usable cores; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: nproc for var in THREAD_VARS}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.joinpath("phardy").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(src).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def time_fresh_interpreter(code: str, src: Path, extra=()) -> tuple[float, str]:
    """Wall time of ``python -c code`` with phardy's source on the path."""
    prog = f"import sys; sys.path.insert(0, {str(src)!r}); {code}"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", prog], capture_output=True, text=True, check=True
    )
    return time.perf_counter() - t0, proc.stderr


def measure_setup(src: Path, config: Path) -> list[float]:
    code = f"import phardy.cli; phardy.cli.load_config({str(config)!r})"
    time_fresh_interpreter(code, src)
    return [time_fresh_interpreter(code, src)[0] for _ in range(SETUP_REPEATS)]


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    ``-X importtime`` log (children are listed before their parents)."""
    rows = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = 0
    stack = []  # (indent, name) of the enclosing imports
    for indent, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total += cumulative
        stack.append((indent, name))
    return total * 1e-6


def measure_scipy_import(src: Path) -> float:
    logs = [
        time_fresh_interpreter("import phardy.cli", src, ("-X", "importtime"))[1]
        for _ in range(IMPORTTIME_REPEATS)
    ]
    return statistics.median(scipy_import_seconds(log) for log in logs)


class Tally:
    """Operations attempted and failed, and the determinism check: an
    operation must give the same result on every pass of one seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}  # (seed, op name) -> result of the first pass
        self.misses = []

    def add(self, seed: int, ops) -> list:
        for op in ops:
            key = json.dumps(
                {k: v for k, v in op.result.items() if not k.endswith("seconds")},
                sort_keys=True,
            )
            if self.first.setdefault((seed, op.name), key) != key:
                op.problems.append("result differs from the first pass of this seed")
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                if len(self.misses) < MAX_MISSES_KEPT:
                    self.misses.append({"seed": seed, "op": op.name, "problems": op.problems})
        return ops


def timed_pass(wl, seed, tally):
    t0 = time.perf_counter()
    raw = wl.run_pass(seed)
    seconds = time.perf_counter() - t0
    return seconds, tally.add(seed, wl.check(raw))


def op_records(ops) -> list[dict]:
    return [{"op": op.name, "ok": op.ok, "problems": op.problems, **op.result} for op in ops]


def measure(wl, seed: int, seconds: float, tally, tracer=None) -> dict:
    """Warm up, then time passes for ``seconds``; with a tracer, every
    untraced pass is followed by a traced one."""
    timed_pass(wl, seed, tally)
    # peak memory after exactly one pass, so that it does not depend on
    # how many passes fit into the run
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, traced_walls, layer_passes = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_PASSES:
        wall, ops = timed_pass(wl, seed, tally)
        walls.append(wall)
        if tracer is None:
            continue
        tracer.reset()
        with tracer.installed(), tracer.span("pass"):
            wall, _ = timed_pass(wl, seed, tally)
        traced_walls.append(wall)
        layer_passes.append(tracing.pass_metrics(tracer.spans, tracer.counts))
    return {"walls": walls, "ops": ops, "peak_rss_mb": rss_mb,
            "traced_walls": traced_walls, "layer_passes": layer_passes}


def run(args) -> tuple[dict, dict, dict]:
    """(result line, summary, provenance) of one benchmark run."""
    root = Path.cwd()
    src = root / "src"
    if not (src / "phardy" / "__init__.py").is_file():
        raise SystemExit(f"error: no phardy source under {src}; run from the repository root")
    caps = cap_threads()
    sys.path.insert(0, str(src))
    # numpy and phardy load only now, after the thread caps are set
    import numpy
    import scipy
    from workloads import WORKLOADS

    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
        "phardy_source_sha256": source_digest(src),
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir()
    try:
        wl = WORKLOADS[args.workload]()
        config = wl.prepare(args.seed, work)
        tally = Tally()
        setup = [] if args.trace else measure_setup(src, config)
        tracer = tracing.Tracer() if args.trace else None
        m = measure(wl, args.seed, args.seconds, tally, tracer)
        second_seed = args.seed + 1_000_003  # the verdicts must hold here too
        _, second_ops = timed_pass(wl, second_seed, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(m["walls"])
    summary = {"passes": len(m["walls"]), "wall_s": wall, "setup_samples": len(setup),
               "fail_frac": tally.failed / tally.attempted}
    if args.trace:
        layers = tracing.median_metrics(m["layer_passes"])
        traced = statistics.median(m["traced_walls"])
        metrics = {k: (v, tracing.LAYER_METRICS[k]) for k, v in layers.items()}
        metrics["setup.scipy_import_s"] = (measure_scipy_import(src), "s")
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - wall, "s")
        summary["shares"] = tracing.shares(layers, traced)
    else:
        gaps = [op.gap_rel for op in m["ops"] if op.gap_rel is not None]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "pass_frac": (1.0 - summary["fail_frac"], "share"),
            # with no minimization left to measure, report a full gap;
            # the run is marked incorrect anyway
            "gap_rel": (statistics.fmean(gaps) if gaps else 1.0, "share"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance,
        "walls_s": m["walls"],
        "setup_s": setup,
        "misses": tally.misses,
        "ops": op_records(m["ops"]),
        "second_seed": {"seed": second_seed, "ops": op_records(second_ops)},
    }
    if tracer is not None:
        record.update(traced_walls_s=m["traced_walls"], layer_calls=tracer.calls,
                      spans=tracer.span_records())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, summary, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["suite", "margins", "constants"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    line, summary, provenance = run(args)
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"{args.workload}: wall_s median of {summary['passes']} passes, setup_s median of "
          f"{summary['setup_samples']} interpreters, fail_frac {summary['fail_frac']:g} "
          f"({line['failed']}/{line['attempted']})")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for layer, share in summary.get("shares", {}).items():
        print(f"  share {layer:26s} {share:.3f}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
