"""Exception hierarchy for the OSNT reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary. Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling an event in the past, running a stopped
    simulator, or cancelling an event that already fired (cancelling a
    pending event twice is an idempotent no-op, not an error).
    """


class PacketError(ReproError):
    """A packet could not be built or parsed."""


class TruncatedPacketError(PacketError):
    """A parse ran off the end of the packet bytes."""


class PcapError(ReproError):
    """A PCAP file was malformed or used an unsupported feature."""


class RegisterError(ReproError):
    """A hardware register access was invalid (bad address or value)."""


class ConfigError(ReproError, ValueError):
    """A component was configured with inconsistent or invalid values.

    Also a :class:`ValueError`: malformed user input (rate strings,
    durations, spec fields) can be caught generically at API boundaries.
    """


class LinkError(ReproError):
    """A port/link was wired incorrectly (double-connect, no peer...)."""


class CaptureError(ReproError):
    """The monitor capture path was misused."""


class GeneratorError(ReproError):
    """The traffic generator was misconfigured or misused."""


class OpenFlowError(ReproError):
    """An OpenFlow message could not be encoded or decoded."""


class OflopsError(ReproError):
    """An OFLOPS-turbo measurement module failed or was misconfigured."""


class SweepError(ReproError):
    """An experiment sweep could not be expanded, executed or resumed."""


class FaultError(ReproError):
    """A fault-injection spec was invalid or could not be attached."""


class SnmpError(ReproError):
    """An SNMP request named an unknown OID or used a bad operation."""


class TopologyError(ReproError, ValueError):
    """A declarative topology was malformed or could not be built.

    Also a :class:`ValueError` for the same reason :class:`ConfigError`
    is: topology documents are user input.
    """


class FlowError(ReproError):
    """A flow transport was misconfigured or misused."""
