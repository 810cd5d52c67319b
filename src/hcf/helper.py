"""One helper thread that shares a call's blocks of work with the calling thread.

numpy's FFTs and large array loops release the interpreter lock, so a block
computed on a second thread overlaps the caller's own work. The thread is
started and joined inside :func:`overlap`: calls share no state, and a process
forked after a call inherits no worker.
"""

from __future__ import annotations

import threading
from collections import deque

#: A thread starts only a block fewer than this many past the next one to
#: emit, which bounds the finished blocks waiting for their turn.
AHEAD = 4


def overlap(items=(), produce=None, consume=None, n_blocks: int = 0, run=None, emit=None) -> None:
    """Run two chains of work on the calling thread and one helper thread.

    The helper calls ``produce(item)`` for each of ``items`` in order. The
    caller passes each result, in order, to ``consume``, which returns how many
    of the blocks ``0 .. n_blocks - 1`` are settled: ready to run. The last
    result must settle them all; with no items, all are settled from the
    start. Between results, and on the helper once it has produced every item,
    ``run(b)`` is called for the lowest-numbered settled block that no thread
    has taken, if it is fewer than ``AHEAD`` blocks past the next block to
    emit. The caller alone passes each block's result to ``emit``, in block
    order. An exception on either thread is raised by the caller once the
    helper has stopped. ``produce`` and ``run`` must write nothing that
    another block reads.
    """
    items = list(items)
    cond = threading.Condition()
    produced, finished = deque(), {}
    # guarded by ``cond``; only the caller advances ``settled`` and ``emitted``
    state = {"settled": 0 if items else n_blocks, "taken": 0, "emitted": 0,
             "error": None, "stop": False}

    def take():
        """Take the next block to run, or return None; call with ``cond`` held."""
        b = state["taken"]
        if b >= min(state["settled"], n_blocks, state["emitted"] + AHEAD):
            return None
        state["taken"] += 1
        return b

    def helper():
        try:
            for item in items:
                result = produce(item)
                with cond:
                    produced.append(result)
                    cond.notify_all()
                    if state["stop"]:
                        return
            while True:
                with cond:
                    while (b := take()) is None:
                        if state["stop"] or state["taken"] >= n_blocks:
                            return
                        cond.wait()
                result = run(b)
                with cond:
                    finished[b] = result
                    cond.notify_all()
        except BaseException as exc:  # raised again on the caller's thread
            with cond:
                state["error"] = exc
                cond.notify_all()

    def next_action():
        """What the caller does next, and its argument; call with ``cond`` held."""
        while True:
            if state["error"] is not None:
                raise state["error"]
            if produced:  # consuming first: it is what settles blocks
                return "consume", produced.popleft()
            if state["emitted"] in finished:
                return "emit", finished.pop(state["emitted"])
            b = take()
            if b is not None:
                return "run", b
            cond.wait()

    thread = threading.Thread(target=helper, daemon=True) if items or n_blocks else None
    if thread is not None:
        thread.start()
    consumed = 0
    try:
        while consumed < len(items) or state["emitted"] < n_blocks:
            with cond:
                action, arg = next_action()
            if action == "consume":
                consumed += 1
                settled = consume(arg)
                with cond:
                    state["settled"] = settled
                    cond.notify_all()
            elif action == "emit":
                emit(arg)
                with cond:
                    state["emitted"] += 1
                    cond.notify_all()
            else:
                result = run(arg)
                with cond:
                    finished[arg] = result
    finally:
        if thread is not None:
            with cond:
                state["stop"] = True
                cond.notify_all()
            thread.join()
