"""Independent items shared out over forked worker processes, one per
usable CPU; the results do not depend on how many there are.

``run_shared`` is how the suite runner checks its cases and how
``optimize.convergence_study`` solves its levels.
"""
from __future__ import annotations

import os
import pickle
import signal
import warnings

from .errors import ToolkitError


def usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def assign(costs, jobs: int) -> list:
    """The items of each of jobs processes, in the order it runs them.
    Items go out in descending cost, a stable sort, each to the process
    with the least cost so far, the lower process on a tie; so equal
    positive costs deal item i to process i mod jobs."""
    loads, shares = [0] * jobs, [[] for _ in range(jobs)]
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return shares


def _first_results(run, indices) -> dict:
    """{i: run(i)} over indices in order, up to and including the first
    exception run returns: the items after it would not run on one CPU."""
    got = {}
    for i in indices:
        got[i] = run(i)
        if isinstance(got[i], Exception):
            break
    return got


def _worker_results(run, indices, ids, noun: str, parent: int) -> dict:
    """_first_results in a worker, where an exception that is no ToolkitError
    comes back as a RuntimeError carrying its traceback text; the worker
    leaves before an item once its parent process is gone."""
    def run_or_trace(i):
        if os.getppid() != parent:  # killed: nothing will read the results
            os._exit(1)
        try:
            return run(i)
        except Exception:
            import traceback  # only a worker that hit a bug needs it

            return RuntimeError(f"{noun} {ids[i]!r} in a worker:\n{traceback.format_exc()}")
    return _first_results(run_or_trace, indices)


def run_shared(run, costs: list, ids, noun: str) -> list:
    """[run(i) for i in range(len(costs))], the first exception in cost
    order raised instead; run returns a result or the ToolkitError of item
    i, whose positive cost is costs[i].  A worker's RuntimeError names
    the item as noun ids[i].

    One process per usable CPU, the items shared out by ``assign``: this
    process is process 0, and each of the others is a forked worker that
    pickles its results into its own pipe and leaves with os._exit.  Each
    process runs its items in cost order, up to its first exception.  A
    worker that ends without a result fails its first item with a
    ToolkitError whose case_id is that item's id.  However this returns
    or raises, no worker is left running or unreaped."""
    n, parent = len(costs), os.getpid()
    shares = assign(costs, max(1, min(usable_cpus(), n)))
    workers = []  # (first item, pid, read end) of each worker not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns of a fork while threads (OpenBLAS's)
                    # exist; as an error it would raise after the worker
                    # exists and lose its pid
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        pickle.dump(_worker_results(run, share, ids, noun, parent), fh)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((share[0], pid, r))
            os.close(w)
        results = _first_results(run, shares[0])
        while workers:
            k, pid, r = workers[0]
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            os.close(r)
            if code == 0:
                results.update(pickle.loads(data))
            else:
                results[k] = ToolkitError(f"its worker ended without a result (exit code {code})")
                results[k].case_id = ids[k]
    finally:
        for _, pid, r in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
    # an item a process did not run comes after its first exception in cost order
    for i in sorted(range(n), key=costs.__getitem__, reverse=True):
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(n)]
