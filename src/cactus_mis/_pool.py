"""Pooled counting for `verify --workers N`: one forked child counts the run's
plan while the parent does the run's oracle-free work.

`run_verification` imports this module only when `workers > 1`, its plan
holds at least 4 graphs and `os.fork` exists; every other run counts its plan
in-process. A pooled run goes plan -> fork -> oracle-free work -> join ->
judge, and differs from a serial one only in who runs `verify.count_plan`.
`count_while` forks one child with `os.fork` and does not wait for it: it
runs the work that needs no count (each family's series expansions,
recurrence totals and GF/recurrence consistency, and every asymptotics
claim) in the parent while the child counts, then reads and reaps the child.
The child runs `count_plan` on the whole plan with a trail of its own, so its
sweeps resume as a serial run's do. One child, and not one per CPU, because
the parent is the second worker: a second child would compete with the
parent's own work for a CPU and split the trail's prefixes between two
trails.

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
with a nonzero status, is an error, never an empty table.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable

from .oracle import SizeDistribution
from .verify import GraphKey, Table, count_plan

_COUNTS, _ERROR = b"c", b"e"  # the tag byte that starts the child's reply


def _child(tasks: list[GraphKey], vertex_limit: int, pipe: int) -> None:
    """Count `tasks`, write the reply to `pipe`, and end the process."""
    status = 1
    try:
        try:
            table = count_plan(tasks, vertex_limit)
            reply = _COUNTS + marshal.dumps({key: dist.counts for key, dist in table.items()})
        except Exception as exc:  # the parent raises it
            import pickle  # only a failed child's reply needs it

            reply = _ERROR + pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as out:
            out.write(reply)
        status = 0
    finally:
        os._exit(status)


def count_while(tasks: list[GraphKey], vertex_limit: int,
                work: Callable[[], object]) -> tuple[Table, object]:
    """The table of every one of `tasks`, counted in one forked child while
    this process runs `work()`, and what `work()` returned.

    Raises what `work()` raised, else the child's error, or ChildProcessError
    for a child that sent no whole reply.
    """
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
