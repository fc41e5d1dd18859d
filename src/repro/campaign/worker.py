"""The ``repro worker`` process: one member of a distributed pool.

A worker dials a :class:`~repro.campaign.pool.PoolBackend` coordinator
(``repro worker --connect HOST:PORT`` or ``python -m
repro.campaign.worker``), or is a child the coordinator forked — for a
pool's ``workers=N`` or a :class:`~repro.campaign.pool.LocalBackend`
pass — and handed one end of a socket pair. Either way it introduces
itself, then loops: receive a point-unit, simulate it
through :func:`~repro.core.suite._run_point`, ship the result (or the
exception) back. While a unit simulates, a daemon thread heartbeats every
``heartbeat_secs`` so the coordinator keeps the unit's lease alive;
simulation is deterministic, so whichever worker ends up computing a
point produces the same bytes.

Graceful shutdown: SIGINT/SIGTERM set a drain flag — a worker blocked
waiting for its next unit exits immediately, a busy one finishes its
unit, sends the result, and exits. The exit code is 130, mirroring
``repro campaign run``'s interrupted convention. A closed (or reset)
coordinator connection is a normal exit (code 0), as is a ``shutdown``
message. Only the wait for a unit is interrupted: a signal that lands
anywhere else (closing the socket, returning from
:func:`serve_connection`, interpreter shutdown) just sets the flag, so
the SIGTERM that ``PoolBackend.close()`` sends a worker already on its
way out never prints a traceback.

Chaos hooks: each unit passes through :mod:`repro.campaign.chaos`,
keyed by the *dispatch* counter so a reassigned unit demonstrably
recovers; its mute hook silences the worker — no heartbeats, no
result — so lease-expiry failover is testable without SIGSTOP
gymnastics.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import traceback
from typing import Optional

from repro.campaign import chaos
from repro.campaign.wire import (
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_OK,
    MSG_SHUTDOWN,
    MSG_UNIT,
    ConnectionClosed,
    recv_message,
    send_message,
)
from repro.core.suite import _run_point, load_simulator

#: Exit code when a signal drained the worker (mirrors campaign run).
EXIT_INTERRUPTED = 130

#: True only while :func:`_next_message` waits for the coordinator.
_waiting = False
_draining = False


def _on_signal(signum, frame) -> None:
    """Drain: stop waiting for units now, else finish what is running."""
    global _draining
    _draining = True
    if _waiting:
        raise KeyboardInterrupt


def _next_message(sock):
    """Receive one frame; a drain signal interrupts only this wait.

    The caller catches the ``KeyboardInterrupt``: ``_waiting`` is set
    and cleared inside its ``try``, so the handler cannot raise outside
    it, and a signal that landed just before the wait began is seen by
    the re-check of ``_draining``.
    """
    global _waiting
    _waiting = True
    try:
        if _draining:
            raise KeyboardInterrupt
        return recv_message(sock)
    finally:
        _waiting = False


def _heartbeat_loop(sock, lock: threading.Lock, token, interval: float,
                    stop: threading.Event) -> None:
    """Renew the unit's lease until the simulation finishes."""
    while not stop.wait(interval):
        try:
            with lock:
                send_message(sock, (MSG_HEARTBEAT, token))
        except OSError:
            return


def _execute_unit(sock, lock: threading.Lock, message) -> None:
    """Simulate one dispatched unit and report its outcome."""
    _tag, token, index, dispatch0, heartbeat_secs, payload = message
    if chaos.mute(index, dispatch0):
        return  # went dark: the coordinator must expire the lease
    stop = threading.Event()
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(sock, lock, token, heartbeat_secs, stop),
        name="repro-worker-heartbeat", daemon=True)
    beater.start()
    try:
        chaos.sabotage(index, dispatch0)
        result = _run_point(payload)
        reply = (MSG_OK, token, result)
    except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
        reply = (MSG_ERROR, token, f"{type(exc).__name__}: {exc}",
                 traceback.format_exc())
    finally:
        stop.set()
        beater.join(timeout=5.0)
    with lock:
        send_message(sock, reply)


def run_worker(host: str, port: int,
               connect_timeout: float = 30.0) -> int:
    """Dial a coordinator and serve its units (:func:`serve_connection`)."""
    return serve_connection(
        socket.create_connection((host, port), timeout=connect_timeout))


def serve_connection(sock: socket.socket) -> int:
    """Serve units over a connected socket until told (or made) to stop.

    The simulator is loaded before the hello, so no unit's attempt or
    timeout pays for the import (a forked worker inherited it).
    """
    global _waiting, _draining
    _waiting = False
    _draining = False
    sock.settimeout(None)
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - not main thread
            pass
    lock = threading.Lock()
    ident = f"{socket.gethostname()}:{os.getpid()}"
    try:
        load_simulator()
        with lock:
            send_message(sock, (MSG_HELLO, {"worker": ident,
                                            "pid": os.getpid()}))
        while True:
            if _draining:
                return EXIT_INTERRUPTED
            try:
                message = _next_message(sock)
            except KeyboardInterrupt:
                return EXIT_INTERRUPTED
            tag = message[0]
            if tag == MSG_SHUTDOWN:
                return 0
            if tag != MSG_UNIT:
                continue  # forward-compatible: ignore unknown frames
            _execute_unit(sock, lock, message)
            if _draining:
                return EXIT_INTERRUPTED
    except (ConnectionClosed, ConnectionError):
        # Closed or reset by the coordinator — also mid-send, e.g. a
        # hello or result reaching a coordinator that already finished.
        return 0
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass


def serve_units(host: str, port: int,
                connect_timeout: float = 30.0) -> int:
    """:func:`run_worker`, reporting a lost coordinator (exit code 1).

    The exit code of ``repro worker`` and of a pool's local workers.
    """
    try:
        return run_worker(host, port, connect_timeout=connect_timeout)
    except (OSError, ConnectionClosed) as exc:
        print(f"error: worker lost the coordinator: {exc}",
              file=sys.stderr)
        return 1


def _parse_endpoint(text: str) -> tuple:
    """Split HOST:PORT (host may be omitted → localhost)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"expected HOST:PORT (e.g. 127.0.0.1:7077), got {text!r}")
    return host or "127.0.0.1", int(port)


def main(argv: Optional[list] = None) -> int:
    """CLI entry: ``repro worker`` / ``python -m repro.campaign.worker``."""
    import argparse  # deferred: the pool imports this module

    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Join a distributed campaign worker pool.")
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address printed by repro campaign run "
             "--backend pool")
    parser.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="SEC",
        help="give up if the coordinator is unreachable (default: 30)")
    args = parser.parse_args(argv)
    try:
        host, port = _parse_endpoint(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return serve_units(host, port, connect_timeout=args.connect_timeout)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
