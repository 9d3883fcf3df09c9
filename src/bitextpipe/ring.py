"""The forked workers of :func:`corpus.ordered_map`, and the pipes between them.

Loaded only when a map forks, so that a command that runs in one process
does not compile it.
"""

from __future__ import annotations

import itertools
import os
import pickle
import select
import signal
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

from .corpus import drain
from .errors import PipelineError

S = TypeVar("S")

class Ring:
    """The workers of one :func:`corpus.ordered_map` and the pipes between them.

    Every pipe carries length-prefixed pickles: worker ``k`` reads
    ``("task", task)`` and then ``("end", number of tasks)`` from its task
    pipe, the token from ring pipe ``k`` (written by worker ``k - 1``, or by
    this process for task 0), and writes the token to ring pipe ``k + 1``.
    The worker whose turn comes after the last task sends ``("ok",
    token)`` on its result pipe; a worker that fails at its turn sends
    ``("error", exception)``. A worker leaves by ``os._exit``, and a dead
    worker's result pipe reads end of file. A worker whose token pipe ends,
    because the worker before it failed, or who finds the next worker gone
    when it passes the token, leaves with status 0, so that the error
    reported is the other worker's.
    """

    def __init__(self, n: int, compute: Callable, add: Callable, outputs: Sequence[BinaryIO]):
        self.n, self.compute, self.add, self.outputs = n, compute, add, outputs

    def run(self, ahead: list, tasks: Iterator, token: S) -> S:
        for handle in self.outputs:
            handle.flush()
        n = self.n
        mine: set[int] = set()  # the pipe ends open here
        task_pipes: list[int] = []  # the write end of each worker's task pipe
        self.live: dict[int, int] = {}  # result pipe -> pid of each unreaped worker
        done = False

        def pipe() -> tuple[int, int]:
            ends = os.pipe()
            mine.update(ends)
            return ends

        try:
            # A worker's pipes are opened just before its fork. This process
            # keeps its task and result ends, and ring pipe 0's until the token.
            first = token_in = pipe()
            for k in range(n):
                task, result = pipe(), pipe()
                token_out = pipe() if k < n - 1 else first
                pid = os.fork()
                if pid == 0:
                    self._worker(k, mine, task[0], token_in[0], token_out[1], result[1])
                self.live[result[0]] = pid
                task_pipes.append(task[1])
                os.set_blocking(task[1], False)
                for fd in {task[0], result[1], token_in[0], token_out[1]} - {first[1]}:
                    os.close(fd)
                    mine.remove(fd)
                token_in = token_out
            self._write(first[1], token)
            os.close(first[1])
            mine.remove(first[1])
            self.poll = select.poll()
            for fd in self.live:
                self.poll.register(fd, select.POLLIN)
            result, failure, sent = None, None, 0
            try:
                for task in itertools.chain(ahead, tasks):
                    result = self._send(task_pipes[sent % n], ("task", task))
                    sent += 1
                    if result:
                        break
            except Exception as exc:  # the tasks' own error, raised at its position
                failure = exc
            for w in task_pipes:
                result = result or self._send(w, ("end", sent))
            kind, value = result or self._wait()
            if kind == "error":
                raise value
            if failure is not None:
                raise failure
            done = True
            return value
        finally:
            for fd in mine:
                os.close(fd)
            for pid in self.live.values():
                if not done:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    # -- this process ----------------------------------------------------

    def _send(self, fd: int, message: tuple) -> tuple | None:
        """Write ``message`` on a task pipe; a result that comes first stops it.

        Returns that result, or None once the message is written. A worker
        that has left needs no more tasks: its result pipe tells why.
        """
        view = memoryview(self._frame(message))
        while True:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                pass
            except BrokenPipeError:
                return self._wait()
            if not view:
                return None
            self.poll.register(fd, select.POLLOUT)
            try:
                ready = [r for r, _ in self.poll.poll() if r != fd]
            finally:
                self.poll.unregister(fd)
            for ready_fd in ready:
                if result := self._collect(ready_fd):
                    return result

    def _wait(self) -> tuple:
        """The next result from a worker."""
        while self.live:
            if result := self._collect(self.poll.poll()[0][0]):
                return result
        raise PipelineError("the workers stopped without a result")

    def _collect(self, fd: int) -> tuple | None:
        """The result on a ready result pipe, or None if its worker left cleanly."""
        try:
            return self._read(fd)
        except EOFError:
            pass
        self.poll.unregister(fd)
        pid = self.live.pop(fd)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status):
            return "error", PipelineError(
                f"worker process {pid} died (exit status {os.waitstatus_to_exitcode(status)})"
            )
        return None

    # -- a worker --------------------------------------------------------

    def _worker(self, k: int, inherited: set[int], tasks: int, token_in: int, token_out: int,
                results: int) -> None:
        code = 1
        try:
            for fd in inherited - {tasks, token_in, token_out, results}:
                os.close(fd)
            index = k
            while True:
                kind, task = self._read(tasks)
                if kind == "end":
                    if task == index:
                        self._write(results, ("ok", self._read(token_in)))
                    break
                pieces: list[list[bytes]] = [[] for _ in self.outputs]
                try:
                    part = drain(self.compute(task), [held.append for held in pieces])
                    error = None
                except Exception as exc:
                    error = exc
                token = self._read(token_in)
                if error is None:
                    try:
                        for handle, data in zip(self.outputs, pieces):
                            handle.writelines(data)
                            handle.flush()
                        token = self.add(token, part)
                    except Exception as exc:
                        error = exc
                if error is not None:
                    self._write(results, ("error", error))
                    break
                self._write(token_out, token)
                index += self.n
            code = 0
        except (EOFError, BrokenPipeError):  # a pipe ended: the process that left reports why
            code = 0
        finally:
            os._exit(code)

    # -- framing ---------------------------------------------------------

    def _frame(self, message: object) -> bytes:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        return len(data).to_bytes(8, "little") + data

    def _write(self, fd: int, message: object) -> None:
        view = memoryview(self._frame(message))
        while view:
            view = view[os.write(fd, view):]

    def _read(self, fd: int) -> object:
        size = int.from_bytes(_read_exactly(fd, 8), "little")
        return pickle.loads(_read_exactly(fd, size))


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from a pipe; EOFError if it ends first."""
    data = b""
    while len(data) < size:
        got = os.read(fd, size - len(data))
        if not got:
            raise EOFError
        data += got
    return data
