"""Where solves run: forked worker processes, on one BLAS thread.

map_forked runs independent solves, a sweep's points and validate's
p = 0 cells, inline or on at most one forked worker per usable cpu (a
fork pool starts all its workers at once).  Processes, not threads:
numpy keeps the GIL through most of an eigvals call below about order
500.  The pool uses os, pickle and select, not multiprocessing: the
workers inherit the function and the items through the fork, read item
indices from one pipe and write pickled results to another.  A fork
copies the calling thread alone, so a caller that runs threads of its
own should not pool.

single_blas_thread caps every loaded OpenBLAS at one thread, and
map_forked sets it before the fork: on 2 cores a second BLAS thread
slowed these solves down even inline.  A fork shuts OpenBLAS's thread
server down in the parent (a pthread_atfork handler), and
*_set_num_threads would restart it with a helper thread that spins
about 0.12 s of a core while idle.  So a pthreads build's count is
written to its exported int blas_cpu_number, the value
*_get_num_threads returns and its level-3 routines read, and the server
starts again only at the next threaded BLAS call, as after any fork.
Other builds are capped through their setter.  A pool leaves no
process, thread or file descriptor behind.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
from contextlib import contextmanager

logger = logging.getLogger(__name__)

# (set, get, parallel) thread entry points of the OpenBLAS builds numpy
# and scipy ship, then of a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_get_parallel64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads",
     "scipy_openblas_get_parallel"),
    ("openblas_set_num_threads", "openblas_get_num_threads",
     "openblas_get_parallel"),
)
# what *_get_parallel returns for a build on OpenBLAS's own pthreads server
_PTHREADS = 1


def _openblas_libraries() -> list:
    """(library, its _OPENBLAS_SYMBOLS names) for every OpenBLAS loaded here.

    Libraries are found in the process memory map, so the list is empty
    off Linux.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # the last field of a line is the mapped file, if any
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        paths = set()
    libraries = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_SYMBOLS:
            if hasattr(lib, names[0]) and hasattr(lib, names[1]):
                libraries.append((lib, names))
                break
    return libraries


def _thread_count(lib, parallel_name: str):
    """The int blas_cpu_number that lib exports, None where lib is not
    built on pthreads or exports no such variable."""
    parallel = getattr(lib, parallel_name, None)
    if parallel is None:
        return None
    parallel.argtypes, parallel.restype = [], ctypes.c_int
    if parallel() != _PTHREADS:
        return None
    try:
        return ctypes.c_int.in_dll(lib, "blas_cpu_number")
    except ValueError:
        return None


def _openblas_controls() -> list:
    """(set, get) thread-count functions of every OpenBLAS loaded here.

    A pthreads build's pair writes and reads its blas_cpu_number, any
    other build's calls its *_set_num_threads and *_get_num_threads.
    """
    controls = []
    for lib, (set_name, get_name, parallel_name) in _openblas_libraries():
        count = _thread_count(lib, parallel_name)
        if count is not None:
            controls.append((functools.partial(setattr, count, "value"),
                             functools.partial(getattr, count, "value")))
            continue
        setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        controls.append((setter, getter))
    if not controls:
        logger.debug("no OpenBLAS found; BLAS thread counts left unchanged")
    return controls


@contextmanager
def single_blas_thread():
    """Run every loaded OpenBLAS on one thread in the block.

    The counts are process-wide; the previous ones are restored on exit.
    Does nothing when no OpenBLAS is found.
    """
    saved = [(setter, getter()) for setter, getter in _openblas_controls()]
    for setter, _ in saved:
        setter(1)
    try:
        yield
    finally:
        for setter, old in saved:
            setter(old)


def _usable_cpus() -> int:
    """The cpus this process may run on: its affinity mask, where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_loop(fn, items, tasks: int, replies: int) -> None:
    """A pool worker's loop: reads an item index from the tasks pipe and
    writes the pickled (index, ok, value) of fn(items[index]) to the
    replies pipe, ok False and value the exception where fn raised,
    until the parent closes the tasks pipe; an exception that does not
    pickle and unpickle goes as a RuntimeError that names it."""
    import pickle
    with open(replies, "wb") as out:
        while index_bytes := os.read(tasks, 8):
            index = int.from_bytes(index_bytes, "little")
            try:
                reply = pickle.dumps((index, True, fn(items[index])))
            except Exception as exc:  # fn's error, or an unpicklable value
                try:
                    pickle.loads(reply := pickle.dumps((index, False, exc)))
                except Exception:
                    reply = pickle.dumps((index, False, RuntimeError(
                        f"item {index} raised {type(exc).__name__}: {exc}")))
            out.write(reply)
            out.flush()


@single_blas_thread()
def map_forked(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in item order, on one BLAS thread.

    Runs on min(jobs, len(items), _usable_cpus()) forked workers, or
    inline where that is 1 or the platform cannot fork.  Pooled results
    must pickle: one that does not fails its item, where the inline path
    returns it.  Once an item fails, no further item is sent, the items
    sent are awaited, and the lowest failing index's exception is raised,
    the one a loop would raise.  Pooled, it is the exception as pickle
    rebuilds it, with no traceback, cause or context, or, where it does
    not pickle and unpickle, a RuntimeError that names the item index
    and the exception's type and message; a worker that exits without
    returning its item fails it with a RuntimeError.  Every worker is
    reaped and every pipe closed before this returns or raises.
    """
    items = list(items)
    workers = min(jobs, len(items), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import pickle
    import select

    pool = {}    # each worker's replies pipe -> (its pid, its tasks pipe)
    busy = {}    # replies pipe -> index of the item sent to that worker
    results, failed = [None] * len(items), {}
    unsent = iter(range(len(items)))

    def send(replies):
        index = next(unsent, None)
        if index is not None:
            os.write(pool[replies][1], index.to_bytes(8, "little"))
            busy[replies] = index

    try:
        for _ in range(workers):
            # the pipes of a worker that fails to start are in no table yet
            fds = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except BaseException:
                for fd in fds:
                    os.close(fd)
                raise
            task_r, task_w, reply_r, reply_w = fds
            if pid == 0:
                code = 1
                try:
                    for replies, (_, tasks) in pool.items():
                        replies.close()
                        os.close(tasks)
                    os.close(task_w)
                    os.close(reply_r)
                    _worker_loop(fn, items, task_r, reply_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(reply_w)
            pool[open(reply_r, "rb")] = (pid, task_w)
        for replies in pool:
            send(replies)
        while busy:
            for replies in select.select(list(busy), [], [])[0]:
                index = busy.pop(replies)
                try:
                    _, ok, value = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):
                    ok, value = False, RuntimeError(
                        f"pool worker {pool[replies][0]} exited without "
                        f"returning item {index}")
                if ok:
                    results[index] = value
                else:
                    failed[index] = value
                if not failed:
                    send(replies)
    finally:
        for replies, (_, tasks) in pool.items():
            os.close(tasks)
            replies.close()
        for pid, _ in pool.values():
            os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return results
