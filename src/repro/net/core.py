"""The one thread-per-connection TCP server core under both wire protocols.

:class:`SocketServer` owns everything about a listening daemon that is not
framing; a subclass supplies :meth:`~SocketServer.handle`, its
read/dispatch/reply loop over one connection
(:class:`repro.net.server.RespTCPServer`: RESP,
:class:`repro.scheduler.service.SchedulerService`: line-JSON).

The accept thread parks in a ``selectors`` wait on the listener plus a wake
``socketpair``, with no timeout: an idle server costs no wake-ups and
``close()`` has no accept slice to wait out.  Handlers stay plain threads
because they legitimately block in Python calls (the keyspace condition,
``Job.results()``).
"""

from __future__ import annotations

import selectors
import socket
import threading
from contextlib import suppress
from typing import Callable, Optional, Set


class Connection:
    """One accepted client socket; ``alive`` until either side closes it."""

    def __init__(self, sock: socket.socket, on_close: Callable[[], None]) -> None:
        self.sock = sock
        self.alive = True
        self._on_close = on_close

    def close(self) -> None:
        """Mark dead, ``shutdown`` + ``close`` the socket, unpark.  Idempotent.

        The ``shutdown`` is what reaches a peer or a handler parked in
        ``recv``; a bare ``close`` is deferred while a ``makefile`` is open.
        """
        if not self.alive:
            return
        self.alive = False
        with suppress(OSError):  # the peer disconnected first
            self.sock.shutdown(socket.SHUT_RDWR)
        with suppress(OSError):
            self.sock.close()
        self._on_close()


class SocketServer:
    """Bind, accept, one daemon thread per connection, idempotent start/close.

    Port ``0`` picks a free one; ``port`` is the bound port after
    :meth:`start`.  Threads are named ``{thread_prefix}-accept-{port}`` and
    ``{thread_prefix}-conn-{port}``.
    """

    thread_prefix = "sock"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._wake: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # start() and close() may come from different threads.
        self._lifecycle = threading.Lock()
        self._conns: Set[Connection] = set()
        self._conns_lock = threading.Lock()

    def handle(self, conn: Connection) -> None:
        """Serve ``conn`` on its own thread; returning or ``OSError`` closes it."""
        raise NotImplementedError

    def unpark(self) -> None:
        """Wake handlers blocked outside ``recv``; runs after a connection died."""

    @property
    def address(self) -> str:
        """``host:port`` as workers and clients expect it."""
        return f"{self.host}:{self.port}"

    def start(self) -> "SocketServer":
        """Bind and start accepting; returns ``self``.  Idempotent; closed stays closed."""
        with self._lifecycle:
            if self._listener is not None or self._stopping.is_set():
                return self
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(64)
            # A peer may reset between the selector's wake-up and accept().
            listener.setblocking(False)
            self._listener = listener
            self.port = listener.getsockname()[1]
            wake_read, self._wake = socket.socketpair()
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                args=(listener, wake_read),
                name=f"{self.thread_prefix}-accept-{self.port}",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, release the port, close every connection.  Idempotent."""
        with self._lifecycle:
            if self._stopping.is_set():
                return
            self._stopping.set()
            if self._listener is not None:
                self._wake.send(b"\0")
                # Joined before the drop: no connection is registered after it.
                self._accept_thread.join(timeout=5.0)
                self._listener.close()
                self._wake.close()
        self.drop_connections()

    def drop_connections(self) -> None:
        """Forcibly close every live client connection (chaos/testing hook).

        Clients with reconnect-and-backoff recover transparently; this is
        how the reconnect path is exercised deterministically.
        """
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def serve_forever(self) -> None:
        """Block until :meth:`close` (daemon mode of the ``repro serve*`` commands)."""
        self.start()
        self._stopping.wait()

    def _accept_loop(self, listener: socket.socket, wake_read: socket.socket) -> None:
        with selectors.DefaultSelector() as selector, wake_read:
            selector.register(listener, selectors.EVENT_READ)
            selector.register(wake_read, selectors.EVENT_READ)
            while True:
                selector.select()
                if self._stopping.is_set():
                    return
                try:
                    sock, _addr = listener.accept()
                except (BlockingIOError, ConnectionAbortedError):
                    continue
                except OSError:
                    return
                sock.setblocking(True)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = Connection(sock, self.unpark)
                with self._conns_lock:
                    self._conns.add(conn)
                threading.Thread(
                    target=self._serve,
                    args=(conn,),
                    name=f"{self.thread_prefix}-conn-{self.port}",
                    daemon=True,
                ).start()

    def _serve(self, conn: Connection) -> None:
        try:
            self.handle(conn)
        except OSError:
            pass  # the peer went away mid-read or mid-reply
        finally:
            conn.close()
            with self._conns_lock:
                self._conns.discard(conn)
