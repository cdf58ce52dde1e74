"""The sharded engine's worker protocol: its frames and its failures.

Every parent↔worker message crosses an OS pipe as one fixed binary
frame: a one-byte command code, a little-endian struct header, and any
sender ids as raw ``tobytes`` payload — decoded with ``np.frombuffer``
on the other side.  The sharded engine sends none: a scatter's or a
deliver's senders are in the shared ``senders`` bitmap and a gather's
were cached at the scatter, so its scatter, gather and deliver frames
are a fixed 18 bytes however large the frontier or the graph.  The id
field stays for the codec's other callers.  ``send`` / ``recv`` return
the exact frame size; the engine's ``pipe_bytes`` total and the
per-superstep ``pipe_bytes`` telemetry counter are built on those
counts.

Frames (sizes are pinned by ``tests/test_frontier.py``):

* ``("run", install, task)`` — a worker's first task of a run, carrying
  the run's install: ``install`` is :func:`pack_install`'s pickle of
  ``(program, values_name, dtype_str, gathered_name, shadow_name)``,
  made once per run, so every worker gets the program as the run
  began; ``task`` is a scatter, gather or deliver message.  The program
  object has no fixed layout, so this frame's body (and only this one)
  is pickled: ``(install, task's own frame)``.  A worker whose first
  task of the run never comes gets no install (a run kept in the
  parent sends nothing).
* ``("scatter", generation, senders, mode)`` /
  ``("gather", generation, senders, mode)`` /
  ``("deliver", generation, senders, mode)`` — per superstep;
  ``senders`` is an int64 id array, ``mode`` a :mod:`repro.bsp.frontier`
  name: ``18 + 8·len(senders)`` bytes.  The engine's arrays are empty: a
  scatter reads the ``senders`` bitmap, a gather delivers the selection
  the worker cached at the scatter of the same ``generation``, and a
  deliver does both in one task — the parent accounted that flood itself
  and sent no scatter.
* ``("close",)`` — one byte.
* ``("ok", *ints)`` — worker replies, ``2 + 8·len(ints)`` bytes; built
  by :func:`ok_reply` and read through :class:`OkReply`.
* ``("error", text)`` — worker traceback.

A task that ends in an ``("error", ...)`` reply, or in no readable reply
at all, surfaces in the parent as :class:`ShardedWorkerError`; which of
those leave the pipes usable is the pool's rule (:mod:`repro.bsp._pool`).
"""

from __future__ import annotations

import pickle
import struct
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.bsp.frontier import COMPLEMENT, DENSE, SPARSE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
    "OkReply",
    "PackedWire",
    "ShardedWorkerError",
    "WireFormatError",
    "WorkerStallError",
    "make_wire",
    "ok_reply",
    "pack_install",
    "unpack_install",
]


class WireFormatError(ValueError):
    """A pipe frame failed structural validation while decoding.

    Raised by :meth:`PackedWire.recv` when a frame is truncated, carries
    an unknown command/mode code, or declares a payload length that does
    not match the bytes actually received — i.e. the two pipe ends
    disagree about the protocol (version skew, corrupted frame, or a
    stray writer on the descriptor).  Distinct from a worker-side
    ``("error", ...)`` reply, which is a well-formed frame reporting an
    application failure.
    """


class ShardedWorkerError(RuntimeError):
    """A shard worker failed while executing its slice of a superstep.

    Attributes
    ----------
    worker_tracebacks:
        ``{worker_index: traceback_text}`` — each failed worker's
        traceback, verbatim as formatted inside the worker process.
    postmortem_path:
        Path of the flight-recorder postmortem bundle dumped for this
        failure, or None when none was written.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_tracebacks: dict[int, str] | None = None,
        postmortem_path: Path | None = None,
    ) -> None:
        super().__init__(message)
        self.worker_tracebacks = dict(worker_tracebacks or {})
        self.postmortem_path = postmortem_path

    @property
    def postmortem_id(self) -> str | None:
        """Bundle id usable with ``GET /debug/postmortem/<id>``."""
        if self.postmortem_path is None:
            return None
        return Path(self.postmortem_path).stem


class WorkerStallError(ShardedWorkerError):
    """A shard worker went silent past the pool's ``stall_timeout``.

    Raised from the parent's pipe-receive loop when a worker it is
    waiting on has recorded no flight-recorder event (no phase change,
    no progress tick) within ``stall_timeout`` seconds — the sharded
    signature of a wedged or livelocked shard.  ``worker`` names the
    stalled shard; the base-class ``postmortem_path`` points at the
    bundle dumped before raising.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int | None = None,
        postmortem_path: Path | None = None,
    ) -> None:
        super().__init__(message, postmortem_path=postmortem_path)
        self.worker = worker


_CMD_RUN = 0x01
_CMD_SCATTER = 0x02
_CMD_GATHER = 0x03
_CMD_CLOSE = 0x04
_CMD_DELIVER = 0x05
_REPLY_OK = 0x00
_REPLY_ERR = 0x7F

_MODE_CODE = {SPARSE: 0, DENSE: 1, COMPLEMENT: 2}
_MODE_NAME = {code: name for name, code in _MODE_CODE.items()}

# The frames that name a generation, and their header after the command
# byte: generation (int64), frontier-mode code (uint8), sender count (int64).
_ARRAY_CODE = {
    "scatter": _CMD_SCATTER,
    "gather": _CMD_GATHER,
    "deliver": _CMD_DELIVER,
}
_ARRAY_CMD = {code: cmd for cmd, code in _ARRAY_CODE.items()}
_ARRAY_HEADER = struct.Struct("<qBq")
_OK_HEADER = struct.Struct("<B")


class PackedWire:
    """Fixed binary frames; sender ids travel as raw int64 bytes."""

    def send(self, conn: "Connection", msg: tuple) -> int:
        """Encode ``msg``, write it with ``send_bytes``, return frame size."""
        frame = self._encode(msg)
        conn.send_bytes(frame)
        return len(frame)

    def recv(self, conn: "Connection") -> tuple[tuple, int]:
        """Read one frame; return ``(message, frame_size)``.

        Raises :class:`WireFormatError` if the frame fails validation.
        """
        buf = conn.recv_bytes()
        return self._decode(buf), len(buf)

    @staticmethod
    def _encode(msg: tuple) -> bytes:
        cmd = msg[0]
        if cmd in _ARRAY_CODE:
            _, gen, senders, mode = msg
            senders = np.ascontiguousarray(senders, dtype=np.int64)
            return (
                bytes([_ARRAY_CODE[cmd]])
                + _ARRAY_HEADER.pack(int(gen), _MODE_CODE[mode], senders.size)
                + senders.tobytes()
            )
        if cmd == "ok":
            ints = [int(v) for v in msg[1:]]
            return (
                bytes([_REPLY_OK])
                + _OK_HEADER.pack(len(ints))
                + struct.pack(f"<{len(ints)}q", *ints)
            )
        if cmd == "error":
            return bytes([_REPLY_ERR]) + msg[1].encode("utf-8", "replace")
        if cmd == "run":
            _, install, task = msg
            body = (install, PackedWire._encode(task))
            pickled = pickle.dumps(body, pickle.HIGHEST_PROTOCOL)  # run frame
            return bytes([_CMD_RUN]) + pickled
        if cmd == "close":
            return bytes([_CMD_CLOSE])
        raise ValueError(f"unknown wire command {cmd!r}")

    @staticmethod
    def _decode(buf: bytes) -> tuple:
        if not buf:
            raise WireFormatError("empty wire frame")
        code = buf[0]
        if code in _ARRAY_CMD:
            cmd = _ARRAY_CMD[code]
            if len(buf) < 1 + _ARRAY_HEADER.size:
                raise WireFormatError(
                    f"truncated {cmd} frame: {len(buf)} byte(s), header "
                    f"needs {1 + _ARRAY_HEADER.size}"
                )
            gen, mode_code, count = _ARRAY_HEADER.unpack_from(buf, 1)
            if mode_code not in _MODE_NAME:
                raise WireFormatError(
                    f"{cmd} frame carries unknown frontier-mode code "
                    f"{mode_code:#x}"
                )
            if count < 0:
                raise WireFormatError(
                    f"{cmd} frame declares negative sender count {count}"
                )
            expected = 1 + _ARRAY_HEADER.size + count * 8
            if len(buf) != expected:
                raise WireFormatError(
                    f"{cmd} frame declares {count} sender id(s) "
                    f"({expected} bytes) but carries {len(buf)} bytes"
                )
            senders = np.frombuffer(
                buf, dtype=np.int64, count=count, offset=1 + _ARRAY_HEADER.size
            )
            return (cmd, gen, senders, _MODE_NAME[mode_code])
        if code == _REPLY_OK:
            if len(buf) < 1 + _OK_HEADER.size:
                raise WireFormatError("truncated ok frame: missing count")
            (count,) = _OK_HEADER.unpack_from(buf, 1)
            expected = 1 + _OK_HEADER.size + count * 8
            if len(buf) != expected:
                raise WireFormatError(
                    f"ok frame declares {count} int(s) ({expected} bytes) "
                    f"but carries {len(buf)} bytes"
                )
            ints = struct.unpack_from(f"<{count}q", buf, 1 + _OK_HEADER.size)
            return ("ok", *ints)
        if code == _REPLY_ERR:
            return ("error", buf[1:].decode("utf-8", "replace"))
        if code == _CMD_RUN:
            try:
                body = pickle.loads(buf[1:])  # run frame
            except Exception as exc:
                raise WireFormatError(
                    f"run frame body failed to unpickle: {exc!r}"
                ) from exc
            if not (
                isinstance(body, tuple)
                and len(body) == 2
                and all(isinstance(part, bytes) for part in body)
            ):
                raise WireFormatError(
                    "run frame body is not an (install, task frame) pair "
                    "of bytes"
                )
            install, frame = body
            task = PackedWire._decode(frame)
            if task[0] not in _ARRAY_CODE:
                raise WireFormatError(
                    f"run frame carries a {task[0]} frame, not a task"
                )
            return ("run", install, task)
        if code == _CMD_CLOSE:
            if len(buf) != 1:
                raise WireFormatError(
                    f"close frame carries {len(buf) - 1} trailing byte(s)"
                )
            return ("close",)
        raise WireFormatError(f"unknown wire code {code:#x}")


def make_wire(name: str) -> PackedWire:
    """The codec named ``name`` — ``"packed"`` is the only wire format."""
    if name != "packed":
        raise ValueError(f"wire must be 'packed', got {name!r}")
    return PackedWire()


def pack_install(
    program: object,
    values_name: str,
    dtype_str: str,
    gathered_name: str,
    shadow_name: str | None,
) -> bytes:
    """A run's install, pickled once for every worker's ``run`` frame."""
    install = (program, values_name, dtype_str, gathered_name, shadow_name)
    return pickle.dumps(install, pickle.HIGHEST_PROTOCOL)  # run frame


def unpack_install(install: bytes) -> tuple:
    """The ``(program, values_name, dtype_str, gathered_name,
    shadow_name)`` a :func:`pack_install` pickle holds."""
    return pickle.loads(install)  # run frame


def ok_reply(busy_ns: int, peak_rss: int, arcs: int | None = None) -> tuple:
    """A worker's ``("ok", ...)`` reply: ``arcs`` leads when the task
    touched arcs (scatter / gather / deliver), the worker's busy time and
    peak RSS always close it."""
    if arcs is None:
        return ("ok", busy_ns, peak_rss)
    return ("ok", arcs, busy_ns, peak_rss)


class OkReply(NamedTuple):
    """The fields of an ``("ok", ...)`` reply, whichever task it answers."""

    arcs: int
    busy_ns: int
    peak_rss: int

    @classmethod
    def parse(cls, reply: tuple) -> "OkReply":
        *arcs, busy_ns, peak_rss = reply[1:]
        return cls(int(arcs[0]) if arcs else 0, int(busy_ns), int(peak_rss))
