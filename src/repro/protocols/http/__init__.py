"""HTTP: message framing, pool web server, probe client."""

from .client import DEFAULT_DEADLINE, FetchResult, HTTPFetch
from .messages import HTTP_PORT, HTTPRequest, HTTPResponse
from .server import PoolWebServer, REDIRECT_TARGET

__all__ = [
    "DEFAULT_DEADLINE",
    "FetchResult",
    "HTTPFetch",
    "HTTPRequest",
    "HTTPResponse",
    "HTTP_PORT",
    "PoolWebServer",
    "REDIRECT_TARGET",
]
