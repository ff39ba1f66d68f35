"""The round helper of a split closure: one forked process and the pipes to it.

``bootstrap._rounds`` imports this module only for a closure whose rounds
it splits, so no other command compiles it.
"""

from __future__ import annotations

import marshal
import os
import select

from .bootstrap import _HelperLost

# The helper exits with this status when it runs out of memory.
OUT_OF_MEMORY = 3


class Link:
    """One side's end of the two pipes between a process and its round helper.

    Each round both sides send their new deltas, as a marshal dump of
    {block: delta} with an 8-byte length prefix, and read the other side's.
    The write end is non-blocking, and ``receive`` writes and reads at once,
    so two messages larger than a pipe's buffer never wait on each other.
    """

    def __init__(self, pid: int, rfd: int, wfd: int):
        self.side = 0 if pid else 1  # the parity of the block weights this side owns
        self.pid = pid  # the helper's, in this process; 0 in the helper
        self._rfd = rfd
        self._wfd = wfd
        self._out = []  # the buffers still to send
        os.set_blocking(wfd, False)

    def send(self, deltas: dict[int, int]) -> None:
        """Start sending the deltas: write what the pipe takes now."""
        data = marshal.dumps(deltas)
        # two buffers, so that the dump is never copied behind its prefix
        self._out = [memoryview(len(data).to_bytes(8, "little")), memoryview(data)]
        self._write()

    def receive(self) -> dict[int, int]:
        """Finish sending, and read the other side's whole message."""
        head = bytearray(8)
        body = None
        want = memoryview(head)
        # poll, not select: select refuses descriptors from FD_SETSIZE (1024) up
        poller = select.poll()
        poller.register(self._rfd, select.POLLIN)
        if self._out:
            poller.register(self._wfd, select.POLLOUT)
        while want or self._out:
            for fd, _ in poller.poll():
                if fd == self._wfd:
                    self._write()
                    if not self._out:
                        poller.unregister(fd)
                    continue
                n = os.readv(fd, [want])
                if not n:
                    self._lost()
                want = want[n:]
                if not want and body is None:
                    body = bytearray(int.from_bytes(head, "little"))
                    want = memoryview(body)
                if not want:
                    poller.unregister(fd)
        return marshal.loads(body)

    def _write(self) -> None:
        try:
            n = os.writev(self._wfd, self._out)
        except BlockingIOError:
            return
        except BrokenPipeError:
            self._lost()
        while n >= len(self._out[0]):
            n -= len(self._out.pop(0))
            if not self._out:
                return
        self._out[0] = self._out[0][n:]

    def _lost(self):
        """The other side closed its pipes.  The helper leaves; this process
        reaps the helper and raises why it ended."""
        if not self.pid:
            os._exit(0)
        status = os.waitpid(self.pid, 0)[1]
        self.pid = 0
        code = os.waitstatus_to_exitcode(status)
        if code == OUT_OF_MEMORY:
            raise MemoryError("the closure's round helper ran out of memory")
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise _HelperLost(f"the closure's round helper process {how}")

    def close(self) -> None:
        """Close the pipes, and reap the helper if it is still there.

        A helper leaves at its next send or receive once the pipes are
        closed, so this waits at most for the round it is in.
        """
        os.close(self._rfd)
        os.close(self._wfd)
        if self.pid:
            os.waitpid(self.pid, 0)
            self.pid = 0


def fork(run) -> Link | None:
    """Fork a helper that calls run with its end of a new link and then exits.

    This process's end of the link, or None when the system refuses a pipe
    or the fork.  The helper leaves only through os._exit, so it never
    flushes stdio buffers or runs atexit handlers inherited from this process.
    """
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    down_r, down_w, up_r, up_w = fds
    if pid:
        os.close(down_r)
        os.close(up_w)
        return Link(pid, up_r, down_w)
    code = 1
    try:
        os.close(down_w)
        os.close(up_r)
        run(Link(0, down_r, up_w))
        code = 0
    except MemoryError:
        code = OUT_OF_MEMORY
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)
