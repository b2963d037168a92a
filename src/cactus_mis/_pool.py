"""Pooled lookups for `verify --workers N`: forked children fill the run's memo
while the parent does the run's oracle-free work.

`run_verification` imports this module only when `workers > 1`. A pooled run
goes plan -> fork -> oracle-free work -> join -> checks. The run plans its
lookups (`verify._collect_tasks`, in plan order) and hands the plan to
`count_while`, together with the work that needs no count: each family's
series expansions, recurrence totals and GF/recurrence consistency, and every
asymptotics claim. `count_while` starts c = min(workers, CPUs this process
may run on, len(plan)) children with `os.fork` and does not wait for them: it
runs that work in the parent while they count, then reads and reaps them, and
the checks that follow only hit the memo. Child i counts every c-th key from
key i on, through `verify.oracle_distribution` with a trail of its own:
neighbours in the plan share vertex prefixes, so each child's sweeps still
resume.

Each child writes one reply down a pipe of its own: a tag byte, then either
`marshal.dumps({key: counts})` or, when its counting raised, the pickled
exception. `marshal` is built in and already loaded, so a run whose children
succeed never imports `pickle`. Its format is not meant for data from another
interpreter version or from anyone who could forge it; here the data comes
only from this process's own forked child, which runs the same interpreter
image. For the same reason the parent takes each count back through
`SizeDistribution._trusted`: `enumerate_mis` made it in this same program. A
child leaves through `os._exit`, so it never returns into its caller, never
flushes the caller's buffers and never runs `atexit` handlers. Its exit status
is 0 only once its reply is written whole.

The parent reads every pipe to EOF and reaps every child before it raises:
also when its own work raised (or was interrupted), a child failed, or a later
`fork` raised. Its own error comes first, then the first child's. A child
that sent nothing, or exited with a nonzero status, is an error, never an
empty memo. Where `os.fork` does not exist the lookups count in-process.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable

from .oracle import SizeDistribution
from .verify import GraphKey, Memo, oracle_distribution

_COUNTS, _ERROR = b"c", b"e"  # the tag byte that starts a child's reply


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def count_share(keys: list[GraphKey], vertex_limit: int) -> dict[GraphKey, dict[int, int]]:
    """The {k: count} of each of `keys`, in order, resuming each sweep from one trail."""
    trail: list = []
    return {key: oracle_distribution(*key, vertex_limit, None, trail).counts for key in keys}


def _child(share: list[GraphKey], vertex_limit: int, pipe: int) -> None:
    """Count `share`, write the reply to `pipe`, and end the process."""
    status = 1
    try:
        try:
            reply = _COUNTS + marshal.dumps(count_share(share, vertex_limit))
        except Exception as exc:  # the parent raises it
            import pickle  # only a failed child's reply needs it

            reply = _ERROR + pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as out:
            out.write(reply)
        status = 0
    finally:
        os._exit(status)


def _start(share: list[GraphKey], vertex_limit: int) -> tuple[int, int]:
    """Fork a child counting `share`: its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _child(share, vertex_limit, write_end)  # never returns
    os.close(write_end)
    return pid, read_end


def _finish(pid: int, read_end: int) -> tuple[int, bytes, int]:
    """Everything the child at `pid` sent, once it has exited, and its exit code."""
    try:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return pid, data, status


def count_while(tasks: list[GraphKey], vertex_limit: int, workers: int,
                work: Callable[[], object]) -> tuple[Memo, object]:
    """A memo of every one of `tasks`, counted in at most `workers` children
    while this process runs `work()`, and what `work()` returned.

    Raises what `work()` raised, else the first child's error, or
    ChildProcessError for a child that sent no whole reply.
    """
    if len(tasks) < 4 or not hasattr(os, "fork"):
        return {}, work()  # the lookups count these in this process
    c = min(workers, _cpus(), len(tasks))
    children: list[tuple[int, int]] = []
    try:
        for i in range(c):
            children.append(_start(tasks[i::c], vertex_limit))
        done = work()
    finally:
        sent = [_finish(pid, read_end) for pid, read_end in children]
    memo: Memo = {}
    for pid, data, status in sent:
        if status != 0 or not data:
            raise ChildProcessError(f"pool child {pid} exited with status {status}"
                                    f" after sending {len(data)} bytes")
        if data[:1] != _COUNTS:
            import pickle  # only a failed child's reply needs it

            raise pickle.loads(data[1:])
        memo.update({key: SizeDistribution._trusted(counts) for key, counts in marshal.loads(data[1:]).items()})
    return memo, done
