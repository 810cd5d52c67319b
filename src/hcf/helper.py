"""One helper thread that computes some of a sequence of blocks while the caller works.

numpy's FFTs and large array loops release the interpreter lock, so a block
computed on a second thread overlaps the caller's own work. The thread is
started and joined inside one ``with`` statement: calls share no state, and a
process forked after a call inherits no worker.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager


@contextmanager
def in_order(fn, items, every: int = 1):
    """Yield an iterator over ``fn(item)`` for each of ``items``, in order.

    A helper thread computes the items at positions ``every - 1, 2*every - 1,
    ...`` (all of them for ``every=1``, every other one for 2), at most two
    results ahead of the iterator, which computes the other items itself as
    it reaches them. An exception that ``fn`` raises on the helper is raised
    by the iterator at that item. ``fn`` must write nothing that another item
    reads.
    """
    items = list(items)
    theirs = items[every - 1::every]
    handoff = queue.Queue(maxsize=1)
    stop = threading.Event()

    def helper():
        for item in theirs:
            try:
                result = (fn(item), None)
            except BaseException as exc:  # raised again on the caller's thread
                result = (None, exc)
            handoff.put(result)
            if stop.is_set() or result[1] is not None:
                return

    def results():
        for pos, item in enumerate(items):
            if pos % every != every - 1:
                yield fn(item)
                continue
            value, exc = handoff.get()
            if exc is not None:
                raise exc
            yield value

    thread = threading.Thread(target=helper, daemon=True) if theirs else None
    if thread is not None:
        thread.start()
    try:
        yield results()
    finally:
        if thread is not None:
            stop.set()
            # a helper blocked on the full handoff gets its slot, then sees ``stop``
            try:
                handoff.get_nowait()
            except queue.Empty:
                pass
            thread.join()
