"""Blocks of frames, run on the calling thread and one helper thread.

:func:`blocks` alone cuts frames into blocks, frame ranges ``(lo, n)`` that
:func:`overlap` runs. numpy's FFTs and most large array loops release the
interpreter lock, so a block on the helper overlaps the caller's own work; a 2-D
``np.cumsum``, as in the estimator's energies and ``_cmndf``, holds it and makes
the other thread wait. The thread is started and joined inside :func:`overlap`:
calls share no state, and a process forked after a call inherits no worker.
"""

from __future__ import annotations

import threading

#: Frames per block; 64 keeps a block's spectra in cache. The posteriors, the
#: track and the given-map output do not depend on it.
BLOCK_FRAMES = 64

#: A thread starts only a block fewer than this many past the next one to
#: emit, which bounds the finished blocks waiting for their turn.
AHEAD = 4


def blocks(n_frames: int, at_most: int | None = None) -> list:
    """Frames ``0 .. n_frames - 1`` as ranges ``(lo, n)`` in order: ``BLOCK_FRAMES``
    frames each, or ``max(1, at_most)`` when that is fewer; the last may be short."""
    size = BLOCK_FRAMES if at_most is None else min(BLOCK_FRAMES, max(1, at_most))
    return [(lo, min(size, n_frames - lo)) for lo in range(0, n_frames, size)]


def overlap(spans: list, run, emit) -> None:
    """Run the frame ranges ``spans`` of :func:`blocks` on the calling thread and one helper.

    Each thread calls ``run(lo, n)`` for the lowest range that no thread has
    taken, if it is fewer than ``AHEAD`` ranges past the next one to emit. The
    caller alone passes each range's result to ``emit``, in order. An exception
    on either thread is raised by the caller once the helper has stopped.
    ``run`` writes nothing; what outlives it is stored by ``emit``.
    """
    cond = threading.Condition()
    finished = {}
    # guarded by ``cond``; only the caller advances ``emitted``
    state = {"taken": 0, "emitted": 0, "error": None, "stop": False}

    def take():
        """Take the next block to run, or return None; call with ``cond`` held."""
        b = state["taken"]
        if b >= min(len(spans), state["emitted"] + AHEAD):
            return None
        state["taken"] += 1
        return b

    def helper():
        try:
            while True:
                with cond:
                    while (b := take()) is None:
                        if state["stop"] or state["taken"] >= len(spans):
                            return
                        cond.wait()
                result = run(*spans[b])
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

    thread = threading.Thread(target=helper, daemon=True) if spans else None
    if thread is not None:
        thread.start()
    try:
        while state["emitted"] < len(spans):
            with cond:
                action, arg = next_action()
            if action == "emit":
                emit(arg)
                with cond:
                    state["emitted"] += 1
                    cond.notify_all()
            else:
                result = run(*spans[arg])
                with cond:
                    finished[arg] = result
    finally:
        if thread is not None:
            with cond:
                state["stop"] = True
                cond.notify_all()
            thread.join()
