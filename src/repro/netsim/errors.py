"""Exception hierarchy for the network simulator.

All simulator errors derive from :class:`NetSimError` so callers can
catch simulator failures without also swallowing programming errors.
"""


class NetSimError(Exception):
    """Base class for all network-simulator errors."""


class CodecError(NetSimError):
    """A packet could not be encoded or decoded.

    Raised for malformed wire data (truncated headers, bad version
    fields, checksum failures when verification is requested) and for
    attempts to encode out-of-range field values.
    """


class AddressError(NetSimError):
    """An IPv4 address or prefix string could not be parsed."""


class RoutingError(NetSimError):
    """No route exists toward the requested destination."""


class TopologyError(NetSimError):
    """The topology under construction is inconsistent.

    Examples: attaching a host to an unknown router, duplicate node
    identifiers, or links that reference missing nodes.
    """


class SimulationError(NetSimError):
    """The event engine was used incorrectly.

    Examples: scheduling events in the past or running a stopped
    scheduler.
    """


class SocketError(NetSimError):
    """A simulated socket operation failed (port in use, not bound)."""
