"""Test helpers for the forked workers of ``phardy.workers``."""
import os

import pytest

import phardy.workers


def usable_cpus(monkeypatch, cpus):
    """Make phardy see `cpus` usable CPUs; a list that counts its forks."""
    monkeypatch.setattr(phardy.workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork
    monkeypatch.setattr(phardy.workers.os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    # every worker was reaped: no child, running or zombie, is left to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
