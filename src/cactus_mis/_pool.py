"""Pooled lookups for `verify --workers N`: forked children fill the run's memo.

`run_verification` imports this module only when `workers > 1`. It hands over
the run's lookup plan (`verify._collect_tasks`, in plan order), and
`pool_counts` starts c = min(workers, os.cpu_count(), len(plan)) children
with `os.fork`. Child i counts every c-th key from key i on, through
`verify.oracle_distribution` with a trail of its own: neighbours in the plan
share vertex prefixes, so each child's sweeps still resume. Each child sends
one pickled `(True, memo)` or `(False, exception)` down a pipe of its own and
leaves through `os._exit`, so it never returns into its caller, never flushes
the caller's buffers and never runs `atexit` handlers. Its exit status is 0
only once its reply is written whole.

The parent reads every pipe and reaps every child, also when a child failed
or a later `fork` raised, before it raises the first child's error. A child
that sent nothing, or exited with a nonzero status, is an error, never an
empty memo. Where `os.fork` does not exist the lookups count in-process.
"""

from __future__ import annotations

import os
import pickle

from .verify import GraphKey, Memo, oracle_distribution


def count_share(keys: list[GraphKey], vertex_limit: int) -> Memo:
    """The counts of `keys`, in order, resuming each sweep from one trail."""
    trail: list = []
    return {key: oracle_distribution(*key, vertex_limit, None, trail) for key in keys}


def _child(share: list[GraphKey], vertex_limit: int, pipe: int) -> None:
    """Count `share`, write the reply to `pipe`, and end the process."""
    status = 1
    try:
        try:
            reply = (True, count_share(share, vertex_limit))
        except Exception as exc:  # the parent raises it
            reply = (False, exc)
        with open(pipe, "wb") as out:
            pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
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


def pool_counts(tasks: list[GraphKey], vertex_limit: int, workers: int) -> Memo:
    """A memo of every one of `tasks`, counted in at most `workers` children.

    Raises the first child's error, or ChildProcessError for a child that
    sent no whole reply.
    """
    if len(tasks) < 4 or not hasattr(os, "fork"):
        return {}  # the lookups count these in this process
    c = min(workers, os.cpu_count() or 1, len(tasks))
    children: list[tuple[int, int]] = []
    try:
        for i in range(c):
            children.append(_start(tasks[i::c], vertex_limit))
    finally:
        sent = [_finish(pid, read_end) for pid, read_end in children]
    memo: Memo = {}
    for pid, data, status in sent:
        if status != 0 or not data:
            raise ChildProcessError(f"pool child {pid} exited with status {status}"
                                    f" after sending {len(data)} bytes")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        memo.update(value)
    return memo

