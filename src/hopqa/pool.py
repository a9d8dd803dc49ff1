"""The worker pool that the autodiff ops hand their tasks to.

A task is a call that fills arrays its submitter allocated. It runs numpy
only, makes no ``Tensor`` and keeps no result, so once it has run it holds
none of its arrays. ``submit`` queues it under the caller's numpy error
handling, which numpy keeps per thread.

The threads that compute are the calling thread and the pool's workers:
one per CPU this process may run on, at most two, so the pool has one
worker on two or more CPUs and none on one. The pool is made on first use,
and again in a forked child. Workers take queued tasks first in, first
out. A thread that waits for a task (``join``, ``finish``) runs it if no
worker has started it, and otherwise waits for the worker; ``finish`` goes
through its tasks last first, so the worker and the waiting thread meet in
the middle. With no worker, every task runs in the thread that waits for
it. ``slot`` tells a task which computing thread runs it, so that it can
use that thread's scratch. The pool assumes BLAS runs one thread, as a
worker and a BLAS thread would otherwise compete for one core.
"""

from __future__ import annotations

import collections
import os
import threading
from typing import Callable, Sequence

import numpy as np


class Task:
    """A call handed to the pool. Once it has run, it holds only its error,
    if it raised one."""

    __slots__ = ("_call", "_pool", "_finished", "_error")

    def __init__(self, fn: Callable, args: tuple, pool: _Pool):
        self._call: tuple | None = (fn, args)
        self._pool = pool
        self._finished = threading.Event()
        self._error: BaseException | None = None

    def _run(self) -> None:
        (fn, args), self._call = self._call, None
        try:
            fn(*args)
        except BaseException as e:      # handed to whoever waits
            self._error = e
        del fn, args                    # before a waiter may go on
        self._finished.set()

    def done(self) -> bool:
        return self._finished.is_set()

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Wait for the task, running it in this thread if no worker has
        started it, and return its error, if any."""
        if not self.done() and self._pool._take(self):
            self._run()
        if not self._finished.wait(timeout):
            raise TimeoutError("task still running")
        return self._error


class _Pool:
    """Worker threads that run queued tasks first in, first out."""

    def __init__(self, n_workers: int):
        self._queue: collections.deque[Task] = collections.deque()
        self._ready = threading.Condition()
        for i in range(n_workers):
            threading.Thread(target=self._work, args=(i + 1,), daemon=True,
                             name=f"hopqa-worker-{i}").start()

    def submit(self, fn: Callable, *args) -> Task:
        task = Task(fn, args, self)
        with self._ready:
            self._queue.append(task)
            self._ready.notify()
        return task

    def _take(self, task: Task) -> bool:
        """Whether ``task`` was still queued; it is not any more."""
        with self._ready:
            try:
                self._queue.remove(task)
            except ValueError:
                return False
        return True

    def _work(self, slot: int) -> None:
        _slot.index = slot
        while True:
            with self._ready:
                while not self._queue:
                    self._ready.wait()
                task = self._queue.popleft()
            task._run()
            del task                    # hold nothing while idle


class _Slot(threading.local):
    index = 0       # 0 in a calling thread, i in pool worker i (from 1)


_slot = _Slot()
_pool: _Pool | None = None
_size = 0
_pool_lock = threading.Lock()


def _workers() -> tuple[_Pool, int]:
    """The pool, made on first use, and the number of threads that compute."""
    global _pool, _size
    with _pool_lock:
        if _pool is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
                else os.cpu_count() or 1
            _size = min(2, cpus)
            _pool = _Pool(_size - 1)
        return _pool, _size


def _forget_pool() -> None:
    # a forked child has none of the parent's threads, and the lock may have
    # been held by one of them
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):     # absent where processes cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


def threads() -> int:
    """The number of threads that compute, the calling thread included."""
    return _workers()[1]


def slot() -> int:
    """Which computing thread runs the caller, from 0 to ``threads()`` less
    one: 0 in a thread that submits tasks, i in worker i."""
    return _slot.index


def submit(fn: Callable, *args) -> Task:
    """Queue ``fn(*args)`` under the caller's numpy error handling."""
    errors = np.geterr()

    def call() -> None:
        with np.errstate(**errors):
            fn(*args)

    return _workers()[0].submit(call)


def done(tasks: Sequence[Task]) -> bool:
    """Whether every task has run."""
    return all(t.done() for t in tasks)


def finish(tasks: Sequence[Task]) -> list[BaseException | None]:
    """Wait for every task, the last first, running in this thread each one
    that no worker has started (workers take the first first), and return
    their errors in task order."""
    return [t.exception() for t in reversed(tasks)][::-1]


def join(tasks: Sequence[Task]) -> None:
    """Wait for every task as ``finish`` does, then raise the first task's
    error, if any, so no task still writes the caller's arrays once the
    caller sees an error."""
    for e in finish(tasks):
        if e is not None:
            raise e
