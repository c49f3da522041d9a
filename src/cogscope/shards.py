"""Index-range shards on a bounded number of forked workers.

A run over n independent items (Weyuker trials, corpus files) is split into
contiguous index ranges, one per working process.  The calling process works
through the first range itself; processes forked from it work through the
others and send their results back through a pipe.  Results come back in
index order, so the output is the same at any number of processes, and one
process is the plain serial loop.
"""

from __future__ import annotations

import marshal
import os

# The fewest items a shard may get.  On a 2-vCPU host, forking a worker and
# reading back its result took 4.4 ms (median), a Weyuker trial 3.9-4.4 ms and
# a corpus file 1.3-1.8 ms, and two busy processes each ran up to 1.3 times
# slower than one alone; a shard of 16 items outweighs its fork several times
# over.  The warm-up sizes (2 trials, 3 files) run in one process.
MIN_SHARD = 16

# The most processes the command line lets one run use, the caller included.
MAX_JOBS = 4


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps
    one (taskset, a container's cpuset), else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def plan(n: int, jobs: int) -> list[range]:
    """Contiguous ranges covering 0..n, one per working process, caller's first.

    There are min(jobs, usable_cpus(), n // MIN_SHARD) of them, and never
    fewer than one; their sizes differ by at most one.  Without ``os.fork``
    (as on Windows) there is one.
    """
    cpus = usable_cpus() if hasattr(os, "fork") else 1
    count = max(1, min(jobs, cpus, n // MIN_SHARD))
    bounds = [n * k // count for k in range(count + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def run(work, n: int, jobs: int) -> list:
    """The results of items 0..n-1 in index order.

    ``work(start, stop)`` returns the list of results of items start..stop-1,
    built from plain data (tuples, lists, dicts, str, int, float, bool,
    None).  A worker is forked with ``work`` in its memory, so only results
    cross a process boundary.  They travel in ``marshal`` form, which is
    built in and exact for plain data; ``pickle`` would add 0.3 MB of peak
    memory and 5 ms to the first run that shards.  A worker's exception
    is raised here as a RuntimeError that carries its traceback.
    """
    shards = plan(n, jobs)
    if len(shards) == 1:
        return work(0, n)
    workers = []  # (shard, pid, read end of its result pipe)
    try:
        for shard in shards[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _work_in_child(work, shard, read_fd, write_fd)
            os.close(write_fd)
            workers.append((shard, pid, open(read_fd, "rb")))
        results = work(shards[0].start, shards[0].stop)
        for shard, _, pipe in workers:
            items = f"items {shard.start}..{shard.stop - 1}"
            # Read before waiting: a worker blocks until its result is read.
            try:
                ok, value = marshal.load(pipe)
            except (EOFError, ValueError, TypeError):
                raise RuntimeError(f"the worker for {items} ended without a result") from None
            if not ok:
                raise RuntimeError(f"the worker for {items} failed:\n{value}")
            results.extend(value)
        return results
    except BaseException:
        import signal

        for _, pid, _ in workers:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)


def _work_in_child(work, shard: range, read_fd: int, write_fd: int) -> None:
    """A forked worker: write (True, results) or (False, the traceback) to the
    pipe, then exit without running the caller's exit handlers or flushing its
    buffered streams."""
    status = 1
    try:
        os.close(read_fd)
        try:
            reply = (True, work(shard.start, shard.stop))
        except Exception:
            import traceback

            reply = (False, traceback.format_exc())
        with open(write_fd, "wb") as pipe:
            marshal.dump(reply, pipe)
        status = 0
    finally:
        os._exit(status)
