"""One helper thread that shares a call's blocks of work with the calling thread.

numpy's FFTs and large array loops release the interpreter lock, so a block
computed on a second thread overlaps the caller's own work. The thread is
started and joined inside :func:`overlap`: calls share no state, and a process
forked after a call inherits no worker.
"""

from __future__ import annotations

import threading

#: A thread starts only a block fewer than this many past the next one to
#: emit, which bounds the finished blocks waiting for their turn.
AHEAD = 4


def overlap(n_blocks: int, run, emit) -> None:
    """Run blocks ``0 .. n_blocks - 1`` on the calling thread and one helper thread.

    Each thread calls ``run(b)`` for the lowest-numbered block that no thread
    has taken, if it is fewer than ``AHEAD`` blocks past the next block to
    emit. The caller alone passes each block's result to ``emit``, in block
    order. An exception on either thread is raised by the caller once the
    helper has stopped. ``run`` must write nothing that another block reads.
    """
    cond = threading.Condition()
    finished = {}
    # guarded by ``cond``; only the caller advances ``emitted``
    state = {"taken": 0, "emitted": 0, "error": None, "stop": False}

    def take():
        """Take the next block to run, or return None; call with ``cond`` held."""
        b = state["taken"]
        if b >= min(n_blocks, state["emitted"] + AHEAD):
            return None
        state["taken"] += 1
        return b

    def helper():
        try:
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
            if state["emitted"] in finished:
                return "emit", finished.pop(state["emitted"])
            b = take()
            if b is not None:
                return "run", b
            cond.wait()

    thread = threading.Thread(target=helper, daemon=True) if n_blocks else None
    if thread is not None:
        thread.start()
    try:
        while state["emitted"] < n_blocks:
            with cond:
                action, arg = next_action()
            if action == "emit":
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
