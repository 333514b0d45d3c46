"""Long-lived serving daemon: a concurrent socket endpoint over one artifact.

``python -m repro serve --listen`` turns the serving plane into a
process that outlives any single batch: a threading
:class:`socketserver.ThreadingMixIn` server fronting one
:class:`~repro.serving.session.ServingSession` over a loaded
:class:`~repro.serving.artifact.ColoringArtifact`.  The wire format is
the ``repro-serving/v1`` protocol — :mod:`repro.serving.protocol` is
the normative spec.

**Concurrency** — each connection is handled by its own thread, and
the session's readers/writer lock does the classification: read ops
from any number of connections execute concurrently against the
current epoch; write ops serialize on the writer lock, which
establishes the total order (each write response carries the unique
epoch it produced).  Responses are still lockstep *per connection*:
one request line, one response line, in order.  Every request runs
under a per-connection ``daemon.request`` span; the
``serving.readers_active`` and ``serving.write_queue_depth`` gauges
expose the lock's live levels, and the ``daemon.requests`` counter and
``daemon.connections`` gauge the daemon's own — all in the session's
metrics registry.

**Durability** — with journaling on (the default), every absorbed
delta is appended to the artifact's on-disk journal *inside the writer
critical section, before its response is written*: an acknowledged
delta is a durable delta, and journal order equals epoch order equals
ack order.  A SIGKILLed daemon therefore loses nothing it acknowledged
— restarting replays the journal (:meth:`ColoringArtifact.load`) and
resumes bit-identically.  ``journal_max_bytes`` / ``journal_max_records``
cap the active journal; hitting a cap triggers an online
compact-and-rotate into ``<artifact>.journal.N`` segments (see
:class:`~repro.serving.journal.RotationPolicy`), keeping weeks-long
daemons at bounded disk and bounded replay.  Graceful shutdown (the
``shutdown`` op, or SIGTERM/SIGINT under the CLI) compacts journal and
segments into a fresh full artifact JSON on the way out.

**Clients** — :func:`connect` is the one client surface: it returns
the same duck-typed client (``request`` / ``request_many`` /
``shutdown`` / context manager) whether the target is an in-process
artifact (a :class:`SessionClient` over a :class:`ServingSession`) or
a daemon address (a socket :class:`DaemonClient`).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import socketserver
import threading
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.obs import snapshot, tracer
from repro.obs import trace as obs_trace
from repro.serving import protocol
from repro.serving.artifact import ColoringArtifact
from repro.serving.journal import RotationPolicy
from repro.serving.session import ServingSession

logger = logging.getLogger(__name__)

#: Default bind address; port 0 lets the OS pick a free port.
DEFAULT_LISTEN = "127.0.0.1:0"


def parse_address(listen: str) -> Tuple[str, int]:
    """Split ``host:port`` (or bare ``:port`` / ``port``) into a pair."""
    host, _, port = listen.rpartition(":")
    if not port.isdigit():
        raise ValueError(f"listen address {listen!r} is not HOST:PORT")
    return host or "127.0.0.1", int(port)


class _Server(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """One thread per connection; handler threads die with the process.

    ``daemon_threads`` keeps shutdown bounded: a client that holds its
    connection open forever must not be able to hold the process
    hostage (the journal, not the handler thread, owns durability).
    """

    daemon_threads = True
    allow_reuse_address = True


class _Handler(socketserver.StreamRequestHandler):
    """One connection: JSON lines in, JSON lines out, lockstep."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        daemon: "ColoringDaemon" = self.server.coloring_daemon  # type: ignore[attr-defined]
        daemon._connections_gauge(+1)
        try:
            for raw in self.rfile:
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    line = ""
                if not line:
                    continue
                self.wfile.write((daemon.handle_line(line) + "\n").encode("utf-8"))
                self.wfile.flush()
                # Once a shutdown is requested (by this connection's op,
                # another's, or a signal), answer nothing more.
                if daemon._shutdown.is_set():
                    break
        finally:
            daemon._connections_gauge(-1)


class ColoringDaemon:
    """The serving loop: artifact + session + socket server + journal.

    ``journal=True`` (default) write-throughs every absorbed delta to
    ``<artifact>.journal`` before acknowledging it (inside the
    session's writer critical section, via
    :attr:`ServingSession.write_hook`); ``fsync=True`` additionally
    survives OS death, mirroring the result store's durability knob.
    ``journal_max_bytes`` / ``journal_max_records`` cap the active
    journal and trigger compact-and-rotate.  :meth:`stop` with
    ``compact=True`` (graceful shutdown) folds journal + segments into
    the artifact JSON; ``compact=False`` abandons the process state,
    leaving the journal for the next :meth:`ColoringArtifact.load` to
    replay — the crash path, minus the crash.
    """

    def __init__(
        self,
        artifact_path: str,
        *,
        listen: str = DEFAULT_LISTEN,
        journal: bool = True,
        fsync: bool = False,
        cache_size: int = 1024,
        repair_path: str = "auto",
        radius_limit: Optional[int] = None,
        rebase_policy="auto",
        journal_max_bytes: Optional[int] = None,
        journal_max_records: Optional[int] = None,
    ) -> None:
        self.artifact_path = artifact_path
        self.journal = journal
        self.fsync = fsync
        self.host, self.port = parse_address(listen)
        self.rotation: Optional[RotationPolicy] = None
        if journal_max_bytes is not None or journal_max_records is not None:
            self.rotation = RotationPolicy(
                max_bytes=journal_max_bytes, max_records=journal_max_records
            )
        artifact = ColoringArtifact.load(artifact_path)
        self.session = ServingSession(
            artifact,
            cache_size=cache_size,
            repair_path=repair_path,
            radius_limit=radius_limit,
            rebase_policy=rebase_policy,
        )
        if journal:
            self.session.write_hook = self._persist_write
        self._server: Optional[socketserver.TCPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        self._served_lock = threading.Lock()
        self._requests = self.session.metrics.counter("daemon.requests")
        self._connections = self.session.metrics.gauge("daemon.connections")

    # ------------------------------------------------------------ accounting
    def _count_request(self) -> None:
        with self._served_lock:
            self._requests.inc()

    def _connections_gauge(self, delta: int) -> None:
        with self._served_lock:
            self._connections.inc(delta)

    def _persist_write(self, _response: Mapping) -> None:
        """The session's write hook: journal-before-ack (+ rotation)."""
        self.session.artifact.save(
            self.artifact_path, journal=True, fsync=self.fsync, rotation=self.rotation
        )

    # --------------------------------------------------------------- serving
    def handle_line(self, line: str) -> str:
        """Answer one protocol line with its response line (no newline).

        Shared by the socket handler (which writes the line as-is) and
        tests.  A result-cache hit is the session's cached line itself
        (:meth:`ServingSession.query_line`); every other answer is
        encoded exactly once.

        Wire-level concerns on top of the session protocol (see
        :mod:`repro.serving.protocol`): the optional ``"trace"``
        envelope field seeds this thread's span context and is
        stripped before the session sees the request; ``shutdown`` is
        acknowledged here; ``{"op": "stats", "scope": "daemon"}``
        answers the extended introspection snapshot (bare ``stats``
        stays a session op so daemon and in-process twins answer it
        identically).  Journaling happens inside the session's writer
        lock via :attr:`ServingSession.write_hook`, so an acknowledged
        delta is durable no matter how many connections race.
        """
        try:
            request = protocol.decode_request_line(line)
        except protocol.ProtocolError as exc:
            return protocol.encode_response(exc.response)
        trace_ctx = request.get("trace")
        if trace_ctx is not None and isinstance(trace_ctx, Mapping):
            obs_trace.set_context(trace_ctx.get("trace_id"), trace_ctx.get("span_id"))
        request = protocol.strip_envelope(request)
        op = request.get("op")
        try:
            if op == "shutdown":
                self._count_request()
                self._shutdown.set()
                return protocol.encode_response({"ok": True, "op": "shutdown"})
            if op == "stats" and request.get("scope") == "daemon":
                self._count_request()
                return protocol.encode_response(self.daemon_stats())
            with tracer().span("daemon.request", op=op):
                reply = self.session.query_line(request)
            self._count_request()
            return reply
        finally:
            if trace_ctx is not None:
                obs_trace.set_context(None, None)

    def daemon_stats(self) -> Dict[str, object]:
        """The read-only introspection snapshot: registry + session + artifact.

        ``registry`` is built here, from the process-wide snapshot plus
        the session's own instruments, and ``requests_served`` /
        ``connections`` / ``cache_stats`` are views over those same
        instruments — one answer cannot contradict itself.

        Deliberately a *daemon-scope* answer (never routed through the
        session or its result cache): the payload is observability, not
        an answer, and it varies with process history — exactly what the
        twin contracts exclude.
        """
        return {
            "ok": True,
            "op": "stats",
            "scope": "daemon",
            "proto": protocol.PROTOCOL_FORMAT,
            "requests_served": self._requests.value,
            "connections": int(self._connections.value),
            "registry": {**snapshot(), **self.session.metrics.snapshot()},
            "cache_stats": self.session.cache_stats(),
            "artifact": self.session.artifact.stats(),
        }

    # ------------------------------------------------------------- lifecycle
    def start(self) -> Tuple[str, int]:
        """Bind and serve in a background thread; return the *resolved*
        ``(host, port)`` (port 0 asks the OS for a free one)."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._server = _Server((self.host, self.port), _Handler)
        self._server.coloring_daemon = self  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (signal handlers and tests call this)."""
        self._shutdown.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown was requested (op or signal)."""
        return self._shutdown.wait(timeout)

    def stop(self, compact: bool = True) -> int:
        """Stop serving; optionally compact the journal.  Returns records folded.

        ``compact=True`` is the graceful path: the in-memory artifact
        (which already contains every journaled delta) is full-saved
        under the session's writer lock — no in-flight write can be
        torn by the fold — deleting the journal and every rotated
        segment.  ``compact=False`` leaves the on-disk base + journal
        pair untouched for the next load.
        """
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        folded = 0
        if compact:
            with self.session.exclusive():
                folded = self.session.artifact.journal_records
                self.session.artifact.save(self.artifact_path, fsync=self.fsync)
        return folded


def run_daemon(
    artifact_path: str,
    listen: str = DEFAULT_LISTEN,
    *,
    journal: bool = True,
    fsync: bool = False,
    cache_size: int = 1024,
    repair_path: str = "auto",
    radius_limit: Optional[int] = None,
    rebase_policy="auto",
    journal_max_bytes: Optional[int] = None,
    journal_max_records: Optional[int] = None,
    log=None,
) -> int:
    """The ``repro serve --listen`` loop: serve until shutdown, then compact.

    Prints ``listening on HOST:PORT`` to stdout with the **resolved**
    port (binding ``HOST:0`` picks a free port; drivers —
    :func:`spawn_daemon_process` included — parse that exact line, so
    no caller ever has to pre-pick a port and race); everything else
    goes through the module logger like the journal and the store.
    ``log`` is an optional extra sink for both lines (legacy hook;
    tests).  Installs SIGTERM/SIGINT handlers that trigger the same
    graceful shutdown as the ``shutdown`` op.  SIGKILL, by definition,
    skips compaction — that is what the journal is for.
    """
    daemon = ColoringDaemon(
        artifact_path,
        listen=listen,
        journal=journal,
        fsync=fsync,
        cache_size=cache_size,
        repair_path=repair_path,
        radius_limit=radius_limit,
        rebase_policy=rebase_policy,
        journal_max_bytes=journal_max_bytes,
        journal_max_records=journal_max_records,
    )
    host, port = daemon.start()
    # This exact stdout line is the port-discovery protocol; keep it a
    # print regardless of logging configuration.
    print(f"listening on {host}:{port}", flush=True)
    logger.info("listening on %s:%d", host, port)
    if log:
        log(f"listening on {host}:{port}")
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda _s, _f: daemon.request_shutdown()
        )
    try:
        daemon.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        folded = daemon.stop(compact=True)
    stats = daemon.session.cache_stats()
    summary = (
        f"shutdown: {daemon._requests.value} requests served, "
        f"{stats['deltas_applied']} deltas, {folded} journal records compacted"
    )
    logger.info("%s", summary)
    if log:
        log(summary)
    return 0


class DaemonClient:
    """A lockstep socket client for the daemon protocol.

    Obtain one via :func:`connect`, the one client surface.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")

    def request(self, request: Mapping) -> Dict[str, object]:
        """Send one request and block for its response line."""
        self._wfile.write(protocol.encode_request(request) + "\n")
        self._wfile.flush()
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection mid-request")
        return json.loads(line)

    def request_many(self, requests: List[Mapping]) -> List[Dict[str, object]]:
        """Lockstep batch: each request is acknowledged before the next."""
        return [self.request(request) for request in requests]

    def shutdown(self) -> Dict[str, object]:
        """Gracefully stop the daemon (it compacts its journal and exits)."""
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        for stream in (self._rfile, self._wfile):
            try:
                stream.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best-effort
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SessionClient:
    """The in-process twin of :class:`DaemonClient`: same surface, no socket.

    Wraps a :class:`ServingSession` (building one from an artifact or
    an artifact path if needed) so tests and runners drive in-process
    and socket serving through one duck type.  ``shutdown`` answers the
    protocol's ``wire-only`` error — an in-process session has no
    process to stop — which keeps response streams honest rather than
    pretending.
    """

    def __init__(self, session: ServingSession) -> None:
        self.session = session

    def request(self, request: Mapping) -> Dict[str, object]:
        return self.session.query(request)

    def request_many(self, requests: List[Mapping]) -> List[Dict[str, object]]:
        return [self.request(request) for request in requests]

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        return None

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def connect(
    target: Union[str, Tuple[str, int], ColoringArtifact, ServingSession],
    *,
    timeout: float = 30.0,
    **session_options,
) -> Union[DaemonClient, SessionClient]:
    """The one client factory: same duck-typed client either way.

    ``target`` may be:

    * a ``(host, port)`` tuple or a ``"HOST:PORT"`` address string —
      a socket :class:`DaemonClient` to a running daemon;
    * a path to an artifact JSON — the artifact is loaded and served
      in-process through a :class:`SessionClient`;
    * a :class:`ColoringArtifact` or a :class:`ServingSession` — also
      in-process.

    An existing file always wins over an address-shaped string (name a
    daemon as ``host:port``, not as a file).  ``session_options``
    (``repair_path``, ``cache_size``, ...) apply to in-process targets
    only.
    """
    if isinstance(target, ServingSession):
        return SessionClient(target)
    if isinstance(target, ColoringArtifact):
        return SessionClient(ServingSession(target, **session_options))
    if isinstance(target, tuple):
        host, port = target
        return DaemonClient(host, int(port), timeout=timeout)
    if isinstance(target, str):
        if os.path.exists(target):
            artifact = ColoringArtifact.load(target)
            return SessionClient(ServingSession(artifact, **session_options))
        try:
            host, port = parse_address(target)
        except ValueError:
            raise ValueError(
                f"connect target {target!r} is neither an existing artifact "
                "file nor a HOST:PORT address"
            ) from None
        return DaemonClient(host, port, timeout=timeout)
    raise TypeError(f"cannot connect to {type(target).__name__}")


def spawn_daemon_process(
    artifact_path: str,
    *,
    listen: str = DEFAULT_LISTEN,
    journal: bool = True,
    repair_path: str = "auto",
    extra_args: Optional[List[str]] = None,
    timeout: float = 30.0,
):
    """Start ``python -m repro serve --listen`` as a subprocess.

    Returns ``(process, host, port)`` once the daemon reports its bound
    address.  Used by the E13 runner, the chaos probe and the CLI tests —
    the SIGKILL experiments need a real process to kill.
    """
    import subprocess
    import sys
    import time

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    command = [sys.executable, "-m", "repro", "serve", "--listen", listen,
               "--artifact", artifact_path, "--repair-path", repair_path]
    if not journal:
        command.append("--no-journal")
    command.extend(extra_args or [])
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
        env=env,
    )
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("listening on "):
            address = line.split("listening on ", 1)[1].strip()
            host, port = parse_address(address)
            return process, host, port
        if not line and process.poll() is not None:
            break
    process.kill()
    raise RuntimeError(f"daemon failed to start (last output: {line!r})")


@contextmanager
def spawned_daemon(artifact_path: str, **options):
    """:func:`spawn_daemon_process` as a context yielding ``(process, host, port)``.

    A daemon still running when the block exits is killed and reaped.
    A deliberate SIGKILL inside the block stays explicit: that kill is
    the experiment, this one is cleanup.
    """
    process, host, port = spawn_daemon_process(artifact_path, **options)
    try:
        yield process, host, port
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
