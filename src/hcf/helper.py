"""Blocks of frames, run on the calling thread and one helper thread.

:func:`blocks` alone cuts frames into blocks, frame ranges ``(lo, n)`` that
:func:`overlap` runs, failing as one serial pass would. numpy's FFTs and most
large array loops release the interpreter lock, so a block on the helper
overlaps the caller's own work; a 2-D ``np.cumsum``, as in the estimator's
energies and ``_cmndf``, holds it and makes the other thread wait. The thread
is started and joined inside :func:`overlap`: calls share no state, and a
process forked after a call inherits no worker.
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
    taken, if it is fewer than ``AHEAD`` ranges past the next one to emit, and
    keeps its outcome, result or exception, in that range's slot. The caller
    alone walks the slots in order, passing each result to ``emit``. So a call
    fails as one serial pass would: it emits every range before the first
    failing one, starts no range once one has raised, and raises that range's
    exception once the helper has stopped. ``run`` writes nothing; what
    outlives it is stored by ``emit``.
    """
    if not spans:
        return
    cond = threading.Condition()
    # guarded by ``cond``; only the caller advances ``emitted`` and empties a slot
    slots = [None] * len(spans)
    state = {"taken": 0, "emitted": 0, "stop": False}

    def take():
        """Take the next block to run, or return None; call with ``cond`` held."""
        b = state["taken"]
        if state["stop"] or b >= min(len(spans), state["emitted"] + AHEAD):
            return None
        state["taken"] += 1
        return b

    def work(b):
        """Run block ``b`` and keep its outcome in its slot."""
        try:
            slot = run(*spans[b]), None
        except BaseException as exc:  # raised again by the caller, in block order
            slot = None, exc
        with cond:
            slots[b] = slot
            state["stop"] |= slot[1] is not None
            cond.notify_all()

    def helper():
        while True:
            with cond:
                while (b := take()) is None:
                    if state["stop"] or state["taken"] >= len(spans):
                        return
                    cond.wait()
            work(b)

    thread = threading.Thread(target=helper, daemon=True)
    thread.start()
    try:
        while (k := state["emitted"]) < len(spans):
            with cond:  # emit block k once it is done, else run a block, else wait
                while (slot := slots[k]) is None and (b := take()) is None:
                    cond.wait()
            if slot is None:
                work(b)
                continue
            result, exc = slot
            if exc is not None:
                raise exc
            emit(result)
            with cond:
                slots[k] = None
                state["emitted"] += 1
                cond.notify_all()
    finally:
        with cond:
            state["stop"] = True
            cond.notify_all()
        thread.join()
