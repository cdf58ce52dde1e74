"""Wire codecs for the sharded engine's worker pipes.

Every parent↔worker message crosses an OS pipe.  The engine historically
let :class:`multiprocessing.connection.Connection` pickle whole command
tuples — convenient, but each per-superstep frame then carries pickle's
object framing (class markers, dtype descriptors, shape tuples) around
what is really one int64 vector.  The ``packed`` codec replaces that
with fixed binary frames: a one-byte command code, a little-endian
struct header, and the sender ids as raw ``tobytes`` payload — decoded
with ``np.frombuffer`` on the other side.  Sender sets are always
transmitted as sparse vertex ids (never per-vertex masks), so frame size
tracks the frontier, not the graph.

The ``pickle`` codec preserves the legacy encoding, but routed through
``send_bytes`` so both codecs count exact bytes-on-pipe.  Engine-level
``pipe_bytes`` totals and the per-superstep ``pipe_bytes`` /
``pipe_bytes_legacy`` telemetry counters are built on these counts; the
two codecs are interchangeable per engine (``wire=`` parameter /
``REPRO_SHARDED_WIRE``) and produce bit-identical results — asserted by
the packing smoke in ``tests/test_frontier.py``.

Command tuples carried (shapes shared by both codecs):

* ``("run", program, values_name, dtype_str, gathered_name)`` — once per
  run; the program object has no fixed layout, so even the packed codec
  pickles this frame's body.
* ``("scatter", generation, senders, mode)`` /
  ``("gather", generation, senders, mode)`` — per superstep; ``senders``
  is an int64 id array, ``mode`` a :mod:`repro.bsp.frontier` name.  A
  gather frame's array is empty: the worker delivers the selection it
  cached at the scatter of the same ``generation``.
* ``("close",)``
* ``("ok", *ints)`` — worker replies; every element is int-coercible.
* ``("error", text)`` — worker traceback.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.bsp.frontier import DENSE, SPARSE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
    "WIRE_FORMATS",
    "PackedWire",
    "PickleWire",
    "WireFormatError",
    "legacy_frame_size",
    "make_wire",
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

#: Wire formats understood by the sharded engine.
WIRE_FORMATS = ("packed", "pickle")

_CMD_RUN = 0x01
_CMD_SCATTER = 0x02
_CMD_GATHER = 0x03
_CMD_CLOSE = 0x04
_REPLY_OK = 0x00
_REPLY_ERR = 0x7F

_MODE_CODE = {SPARSE: 0, DENSE: 1}
_MODE_NAME = {0: SPARSE, 1: DENSE}

# Header of a scatter/gather frame after the command byte:
# generation (int64), frontier-mode code (uint8), sender count (int64).
_ARRAY_HEADER = struct.Struct("<qBq")
_OK_HEADER = struct.Struct("<B")


class PackedWire:
    """Fixed binary frames; sender ids travel as raw int64 bytes."""

    name = "packed"

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
        if cmd == "scatter" or cmd == "gather":
            _, gen, senders, mode = msg
            senders = np.ascontiguousarray(senders, dtype=np.int64)
            code = _CMD_SCATTER if cmd == "scatter" else _CMD_GATHER
            return (
                bytes([code])
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
            return bytes([_CMD_RUN]) + pickle.dumps(
                msg[1:], protocol=pickle.HIGHEST_PROTOCOL
            )
        if cmd == "close":
            return bytes([_CMD_CLOSE])
        raise ValueError(f"unknown wire command {cmd!r}")

    @staticmethod
    def _decode(buf: bytes) -> tuple:
        if not buf:
            raise WireFormatError("empty wire frame")
        code = buf[0]
        if code == _CMD_SCATTER or code == _CMD_GATHER:
            cmd = "scatter" if code == _CMD_SCATTER else "gather"
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
                body = pickle.loads(buf[1:])
            except Exception as exc:
                raise WireFormatError(
                    f"run frame body failed to unpickle: {exc!r}"
                ) from exc
            if not isinstance(body, tuple):
                raise WireFormatError(
                    "run frame body is not a tuple: "
                    f"{type(body).__name__}"
                )
            return ("run", *body)
        if code == _CMD_CLOSE:
            if len(buf) != 1:
                raise WireFormatError(
                    f"close frame carries {len(buf) - 1} trailing byte(s)"
                )
            return ("close",)
        raise WireFormatError(f"unknown wire code {code:#x}")


class PickleWire:
    """Legacy whole-tuple pickling, made byte-countable via send_bytes."""

    name = "pickle"

    def send(self, conn: "Connection", msg: tuple) -> int:
        frame = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        conn.send_bytes(frame)
        return len(frame)

    def recv(self, conn: "Connection") -> tuple[tuple, int]:
        buf = conn.recv_bytes()
        msg = pickle.loads(buf)
        if not isinstance(msg, tuple) or not msg:
            raise WireFormatError(
                "pickle frame did not decode to a non-empty tuple"
            )
        return msg, len(buf)


Wire = Union[PackedWire, PickleWire]


def make_wire(name: str) -> Wire:
    """Instantiate a wire codec by format name."""
    if name == "packed":
        return PackedWire()
    if name == "pickle":
        return PickleWire()
    raise ValueError(f"wire must be one of {WIRE_FORMATS}, got {name!r}")


def legacy_frame_size(msg: tuple) -> int:
    """Bytes the legacy pickle codec would put on the pipe for ``msg``.

    Used to report the ``pipe_bytes_legacy`` counterfactual next to the
    packed codec's actual ``pipe_bytes`` (telemetry-only; never on the
    hot path when telemetry is disabled).
    """
    return len(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))
