from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cogscope import shards

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("items", [0, 1, 3, 31, 32, 101, 10_000])
@pytest.mark.parametrize("jobs", [1, 2, 3, 10_000])
def test_plan_covers_every_item_in_contiguous_ranges(items, jobs):
    ranges = shards.plan(items, jobs)
    assert ranges[0].start == 0
    assert ranges[-1].stop == items
    assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
    sizes = [len(r) for r in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert 1 <= len(ranges) <= min(jobs, shards.usable_cpus())
    assert len(ranges) == 1 or min(sizes) >= shards.MIN_SHARD


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_plan_never_exceeds_jobs_or_the_usable_cpus(cpus, monkeypatch):
    monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
    for jobs in (1, 2, 3, 10_000):
        count = len(shards.plan(10_000, jobs))
        assert count == min(jobs, cpus)


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert shards.usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
    assert shards.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert shards.usable_cpus() == 1


def test_plan_takes_one_shard_without_fork(monkeypatch):
    monkeypatch.setattr(shards, "usable_cpus", lambda: 64)
    monkeypatch.delattr(os, "fork")
    assert len(shards.plan(10_000, 4)) == 1


def test_warmup_sizes_take_one_shard(monkeypatch):
    monkeypatch.setattr(shards, "usable_cpus", lambda: 64)
    assert len(shards.plan(2, 10_000)) == 1  # weyuker warm-up trials
    assert len(shards.plan(3, 10_000)) == 1  # corpus warm-up files


def test_warmup_runs_fork_nothing_and_import_nothing_more(tmp_path):
    for index in range(3):
        (tmp_path / f"p{index}.ml1").write_text("void main() { int a = 1; }")
    script = (
        "import os, sys\n"
        "def no_fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = no_fork\n"
        "from cogscope import shards\n"
        "shards.usable_cpus = lambda: 64\n"
        "from cogscope.cli import main\n"
        "assert main(['weyuker', '--trials', '2', '--metrics', 'escim']) == 0\n"
        f"assert main(['corpus', {str(tmp_path)!r}]) == 0\n"
        "assert 'pickle' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
