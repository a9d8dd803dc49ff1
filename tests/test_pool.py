import ast
import inspect
import sys
import threading
import time
from pathlib import Path

import pytest

from hopqa import autodiff as ad
from hopqa import pool as hp


def test_join_waits_for_every_task_before_raising():
    assert 1 <= hp.threads() <= 2
    done = threading.Event()

    def fail():
        raise ad.NumericError("first")

    def slow():
        time.sleep(0.05)
        done.set()

    with pytest.raises(ad.NumericError, match="first"):
        hp.join([hp.submit(fail), hp.submit(slow)])
    assert done.is_set()


def _blocked_pool():
    """The pool with its worker, if it has one, held by a task until the
    returned event is set; the task is returned too."""
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        assert release.wait(10)

    blocker = hp.submit(hold)
    if hp.threads() > 1:                # one worker, now busy
        assert started.wait(10)
    return release, blocker


def test_a_task_no_worker_has_started_runs_in_the_waiting_thread():
    release, blocker = _blocked_pool()
    try:
        ran_in = []
        ran = hp.submit(lambda: ran_in.append(threading.get_ident()))
        failed = hp.submit(lambda: 1 / 0)
        assert not ran.done() and not failed.done()
        assert ran.exception(10) is None
        assert ran_in == [threading.get_ident()]
        assert ran.done()
        assert isinstance(failed.exception(10), ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            hp.join([failed])
    finally:
        release.set()
    assert blocker.exception(10) is None


def test_join_runs_queued_tasks_in_the_caller_while_the_worker_is_blocked():
    release, blocker = _blocked_pool()
    try:
        ran_in = []
        tasks = [hp.submit(lambda: ran_in.append(threading.get_ident())) for _ in range(3)]
        hp.join(tasks)
        assert ran_in == [threading.get_ident()] * 3
    finally:
        release.set()
    assert blocker.exception(10) is None


def test_each_task_runs_once_while_callers_race_the_worker_for_it():
    # four callers join their own tasks, taking from the back of the queue
    # what the worker takes from the front; a task taken twice runs twice
    ran = []

    def caller(c):
        for r in range(50):
            hp.join([hp.submit(ran.append, (c, r, j)) for j in range(4)])

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(ran) == [(c, r, j) for c in range(4) for r in range(50) for j in range(4)]


def _imports(tree: ast.Module) -> set[tuple[int, str]]:
    """(level, module) of every import: level 0 for an absolute one, and
    ``from . import x`` gives (1, "x")."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {(0, a.name) for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {(node.level, node.module or a.name) for a in node.names}
    return out


def _attributes_of(tree: ast.Module, name: str) -> set[str]:
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == name}


def test_autodiff_reaches_the_pool_only_through_its_interface():
    # the ops submit, join and finish tasks, ask whether they are done, and
    # size and pick per-thread scratch; Task only names the handles' type.
    # The threads and the queue stay in the pool, and the pool never sees a
    # Tensor.
    tree = ast.parse(inspect.getsource(ad))
    imports = _imports(tree)
    assert (1, "pool") in imports
    assert {m for level, m in imports if level} == {"pool"}
    assert not {m.split(".")[0] for _, m in imports} & {
        "collections", "queue", "concurrent", "multiprocessing", "_thread"}
    assert _attributes_of(tree, "threading") == {"local"}
    assert _attributes_of(tree, "pool") == {
        "submit", "join", "finish", "done", "threads", "slot", "Task"}
    pool_tree = ast.parse(Path(hp.__file__).read_text(encoding="utf-8"))
    assert not [m for level, m in _imports(pool_tree) if level or m.startswith("hopqa")]
