"""Forked worker processes, each talking to the process that started it
over a pipe each way.  The pipes carry pickled ``(kind, payload)`` messages
of plain data: tuples, strings, numbers and the model's dataclasses, never
exception objects.  :mod:`segmigrate.cli` imports this module only once it
starts a worker."""

from __future__ import annotations

import gc
import os
import pickle
import signal
from typing import Callable, Optional, Sequence, Tuple


class Pipe:
    """This process's ends of a pipe each way."""

    def __init__(self, reader: int, writer: int) -> None:
        self.reader = os.fdopen(reader, "rb")
        self.writer = os.fdopen(writer, "wb")

    def send(self, kind: str, payload: object) -> None:
        pickle.dump((kind, payload), self.writer, pickle.HIGHEST_PROTOCOL)
        self.writer.flush()

    def receive(self) -> Tuple[str, object]:
        """The next message; EOFError once the other side has gone."""
        # a message holds no cycles, and a collection while it is being
        # built would scan the whole resident heap, several times over
        paused = gc.isenabled()
        gc.disable()
        try:
            return pickle.load(self.reader)
        except pickle.UnpicklingError:
            raise EOFError("truncated message")
        finally:
            if paused:
                gc.enable()

    def close(self) -> None:
        self.reader.close()
        self.writer.close()


class Worker:
    """A forked process running ``body(pipe)``, where ``pipe`` holds its ends
    of the pipes.  Whatever ``body`` raises goes up as a ``failed`` message
    holding its traceback text.  The process never returns into its parent's
    stack: it writes nothing to stdout or stderr, runs no exit handler and
    leaves through ``os._exit``."""

    def __init__(self, pid: int, pipe: Pipe) -> None:
        self.pid: Optional[int] = pid  # None once reaped: the number may be reused
        self.pipe = pipe

    @classmethod
    def start(cls, body: Callable[[Pipe], None], running: Sequence["Worker"]) -> "Worker":
        """Fork a worker; ``running`` are the caller's other workers, whose
        pipes the new process closes."""
        up, down = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (*up, *down):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(up[0])
                os.close(down[1])
                for worker in running:
                    worker.pipe.close()  # so each of those sees end of file when the parent goes
                pipe = Pipe(down[0], up[1])
                try:
                    body(pipe)
                    code = 0
                except BaseException:
                    import traceback

                    pipe.send("failed", traceback.format_exc())
                    raise  # into the finally, which leaves through os._exit
            finally:
                os._exit(code)
        os.close(up[1])
        os.close(down[0])
        return cls(pid, Pipe(up[0], down[1]))

    def receive(self) -> object:
        """The payload of the worker's next message; raises if it failed or
        exited first."""
        try:
            kind, payload = self.pipe.receive()
        except EOFError:
            pid, self.pid = self.pid, None
            _, status = os.waitpid(pid, 0)
            raise RuntimeError(f"worker {pid} exited with status "
                               f"{os.waitstatus_to_exitcode(status)} without replying")
        if kind == "failed":
            raise RuntimeError(f"worker {self.pid} failed:\n{payload}")
        return payload

    def stop(self) -> None:
        """Kill and reap the worker; it has nothing left to do once its
        caller stops listening."""
        self.pipe.close()
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        try:
            os.kill(pid, signal.SIGKILL)  # a child not yet reaped keeps its number
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped by someone else
