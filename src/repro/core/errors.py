"""Exception hierarchy for the DRX / DRX-MP reproduction.

All library-raised errors derive from :class:`DRXError` so applications can
catch one base class.  The hierarchy mirrors the error codes the paper's C
API returns ("Some functions may return error codes that are defined in the
context of the extendible array file environment", section IV-C) but maps
them onto idiomatic Python exceptions.
"""

from __future__ import annotations

__all__ = [
    "DRXError",
    "DRXIndexError",
    "DRXExtendError",
    "DRXFileError",
    "DRXFileExistsError",
    "DRXFileNotFoundError",
    "DRXFormatError",
    "DRXClosedError",
    "DRXTypeError",
    "DRXDistributionError",
    "ChecksumError",
    "CrashError",
    "MPIError",
    "MPIAbort",
    "MPICommError",
    "MPIDatatypeError",
    "MPIFileError",
    "MPIWinError",
    "PFSError",
    "ServerDownError",
    "DeadlineError",
    "ServeError",
    "RetryLater",
]


class DRXError(Exception):
    """Base class of every error raised by the ``repro`` library."""


class DRXIndexError(DRXError, IndexError):
    """A k-dimensional or linear index is outside the array's current bounds."""


class DRXExtendError(DRXError, ValueError):
    """An invalid extension request (non-positive growth, bad dimension, ...)."""


class DRXFileError(DRXError, OSError):
    """Base class for array-file level failures."""


class DRXFileExistsError(DRXFileError):
    """Creation requested for an array file that already exists."""


class DRXFileNotFoundError(DRXFileError):
    """Open requested for an array file that does not exist.

    The paper: "This function opens an extendible array file.  The file
    must exist otherwise it returns an error."
    """


class DRXFormatError(DRXFileError):
    """The ``.xmd`` meta-data or ``.xta`` data file content is malformed."""


class DRXClosedError(DRXError, ValueError):
    """Operation attempted through a handle that has been closed."""


class DRXTypeError(DRXError, TypeError):
    """Unsupported element data type.

    The paper restricts elements to the basic types accessible through
    MPI-2 RMA: integer, double and complex.
    """


class DRXDistributionError(DRXError, ValueError):
    """An invalid zone partitioning / data distribution request."""


class ChecksumError(DRXFormatError):
    """A chunk's stored CRC32 does not match the bytes read back.

    Raised on pool fault-in, streamed reads and ``scrub()`` when per-chunk
    checksums are enabled — the data was torn or corrupted at rest.
    """


class CrashError(DRXError):
    """A simulated process crash injected at a named crash point.

    Raised by the fault-injection machinery (:mod:`repro.drx.resilience`)
    to model the process dying at an arbitrary instant: nothing after the
    crash point executes, and tests then reopen the on-disk state.  Never
    classified as transient — retry layers always propagate it.
    """

    transient = False


# ---------------------------------------------------------------------------
# MPI substrate errors
# ---------------------------------------------------------------------------


class MPIError(DRXError, RuntimeError):
    """Base class of errors raised by the in-process MPI-2 substrate."""


class MPIAbort(MPIError):
    """Raised in every rank when one rank calls ``comm.Abort()``."""


class MPICommError(MPIError):
    """Invalid communicator usage (bad rank, mismatched collective, ...)."""


class MPIDatatypeError(MPIError):
    """Invalid derived-datatype construction or use of an uncommitted type."""


class MPIFileError(MPIError):
    """MPI-IO failure (bad view, access past EOF in read-only mode, ...)."""


class MPIWinError(MPIError):
    """RMA failure (access outside an epoch, out-of-range target, ...)."""


# ---------------------------------------------------------------------------
# Parallel file system substrate errors
# ---------------------------------------------------------------------------


class DeadlineError(DRXError, TimeoutError):
    """A deadline expired (or its cancellation scope was cancelled).

    Raised by :class:`repro.core.watchdog.Deadline` /
    :class:`~repro.core.watchdog.CancelScope` checkpoints: the MPI
    watchdog's per-run limit and the serve daemon's per-request
    deadlines both surface through this type.  Never transient — the
    budget is spent; whether to retry with a fresh budget is the
    caller's decision.
    """

    transient = False


# ---------------------------------------------------------------------------
# Array service (drx-serve) errors
# ---------------------------------------------------------------------------


class ServeError(DRXError):
    """A failure transported over the drx-serve wire protocol.

    The daemon serializes the server-side exception as ``(kind,
    message, transient)``; the client stub re-raises it as this type so
    its retry loop can consult the same
    :func:`repro.drx.resilience.is_transient` classification the
    storage stack uses (the explicit ``transient`` attribute wins).
    """

    def __init__(self, message: str, kind: str = "ServeError",
                 transient: bool = False) -> None:
        super().__init__(message)
        self.kind = kind
        self.transient = bool(transient)


class RetryLater(ServeError):
    """Backpressure: the daemon refused admission instead of queueing
    unboundedly.  Always transient — the client stub backs off and
    re-issues the request."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"server busy: {reason}", kind="RetryLater",
                         transient=True)
        self.reason = reason


class PFSError(DRXError, OSError):
    """Failure inside the simulated parallel file system.

    Transient by default (a busy server, a lost message).  A refusal on
    the request's own merits — a bad extent, a length mismatch, a file
    that exists or does not — passes ``transient=False``, so retry
    layers surface it at once.
    """

    def __init__(self, *args, transient: bool | None = None) -> None:
        super().__init__(*args)
        if transient is not None:
            self.transient = transient


class ServerDownError(PFSError):
    """An operation was routed to an I/O server that is down.

    Raised by :class:`~repro.pfs.server.IOServer` when a request reaches
    a killed server, and by :class:`~repro.pfs.pfile.PFSFile` when every
    replica of a stripe is unreachable.  Unlike generic
    :class:`PFSError`\\ s it is *not* transient: the replicated read
    path has already exhausted failover by the time it escapes, so retry
    layers surface it instead of spinning.
    """

    transient = False
