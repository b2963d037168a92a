"""Pooled lookups for `verify --workers N`: one forked child fills the run's
memo while the parent does the run's oracle-free work.

`run_verification` imports this module only when `workers > 1`. A pooled run
goes plan -> fork -> oracle-free work -> join -> checks. The run plans its
lookups (`verify._collect_tasks`, in plan order) and hands the plan to
`count_while`, together with the work that needs no count: each family's
series expansions, recurrence totals and GF/recurrence consistency, and every
asymptotics claim. `count_while` forks one child with `os.fork` and does not
wait for it: it runs that work in the parent while the child counts, then
reads and reaps the child, and the checks that follow only hit the memo. The
child counts the whole plan in plan order, through
`verify.oracle_distribution` with one trail: neighbours in the plan share
vertex prefixes, so its sweeps resume as the serial run's do. One child, and
not one per CPU, because the parent is the second worker: a second child
would compete with the parent's own work for a CPU and split the trail's
prefixes between two trails.

The child writes one reply down its pipe: a tag byte, then either
`marshal.dumps({key: counts})` or, when its counting raised, the pickled
exception. `marshal` is built in and already loaded, so a run whose child
succeeds never imports `pickle`. Its format is not meant for data from another
interpreter version or from anyone who could forge it; here the data comes
only from this process's own forked child, which runs the same interpreter
image. For the same reason the parent takes each count back through
`SizeDistribution._trusted`: `enumerate_mis` made it in this same program. The
child leaves through `os._exit`, so it never returns into its caller, never
flushes the caller's buffers and never runs `atexit` handlers. Its exit status
is 0 only once its reply is written whole.

The parent reads the pipe to EOF and reaps the child before it raises: also
when its own work raised (or was interrupted) or the child failed. Its own
error comes first, then the child's. A child that sent nothing, or exited
with a nonzero status, is an error, never an empty memo. Where `os.fork` does
not exist, or the plan is too short to pay for a fork, the lookups count
in-process.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable

from .oracle import SizeDistribution
from .verify import GraphKey, Memo, oracle_distribution

_COUNTS, _ERROR = b"c", b"e"  # the tag byte that starts the child's reply


def count_plan(keys: list[GraphKey], vertex_limit: int) -> dict[GraphKey, dict[int, int]]:
    """The {k: count} of each of `keys`, in order, resuming each sweep from one trail."""
    trail: list = []
    return {key: oracle_distribution(*key, vertex_limit, None, trail).counts for key in keys}


def _child(tasks: list[GraphKey], vertex_limit: int, pipe: int) -> None:
    """Count `tasks`, write the reply to `pipe`, and end the process."""
    status = 1
    try:
        try:
            reply = _COUNTS + marshal.dumps(count_plan(tasks, vertex_limit))
        except Exception as exc:  # the parent raises it
            import pickle  # only a failed child's reply needs it

            reply = _ERROR + pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as out:
            out.write(reply)
        status = 0
    finally:
        os._exit(status)


def count_while(tasks: list[GraphKey], vertex_limit: int,
                work: Callable[[], object]) -> tuple[Memo, object]:
    """A memo of every one of `tasks`, counted in one forked child while this
    process runs `work()`, and what `work()` returned.

    Raises what `work()` raised, else the child's error, or ChildProcessError
    for a child that sent no whole reply.
    """
    if len(tasks) < 4 or not hasattr(os, "fork"):
        return {}, work()  # the lookups count these in this process
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _child(tasks, vertex_limit, write_end)  # never returns
    os.close(write_end)
    try:
        done = work()
    finally:
        try:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        raise ChildProcessError(f"pool child {pid} exited with status {status}"
                                f" after sending {len(data)} bytes")
    if data[:1] != _COUNTS:
        import pickle  # only a failed child's reply needs it

        raise pickle.loads(data[1:])
    return {key: SizeDistribution._trusted(counts) for key, counts in marshal.loads(data[1:]).items()}, done
