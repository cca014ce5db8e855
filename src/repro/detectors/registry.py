"""The detector registry: algorithm names to uniform implementations.

Every community-detection algorithm in the library registers here under
a short string key (``oca``, ``lfk``, ``cfinder``, ``cpm``) and is
reachable through one call shape::

    detector = get_detector("lfk")
    result = detector.detect(DetectionRequest(graph=g, seed=7))

The registry is open: downstream code adds algorithms with
:func:`register_detector` and they immediately become available to the
experiment runner, the CLI, and :class:`~repro.detectors.GraphSession`
— no adapter wiring required.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Protocol,
    Type,
    runtime_checkable,
)

from ..detection import DetectionRequest, DetectionResult
from ..errors import AlgorithmError

__all__ = [
    "CommunityDetector",
    "register_detector",
    "get_detector",
    "resolve_detector",
    "available_detectors",
]


@runtime_checkable
class CommunityDetector(Protocol):
    """What the registry hands out: a named, uniform detect callable.

    Attributes
    ----------
    name:
        The registry key the detector answers to (lower-case).

    Implementations must be cheap to instantiate and stateless across
    :meth:`detect` calls — all per-call state travels in the request,
    all per-graph state lives on the graph (compiled form, spectral
    cache) or in the session that owns the request.
    """

    name: str

    def detect(self, request: DetectionRequest) -> DetectionResult:
        """Run the algorithm described by ``request``."""
        ...


#: Registered detector classes, keyed by lower-case name.
_DETECTORS: Dict[str, Type] = {}


def register_detector(*names: str) -> Callable[[Type], Type]:
    """Class decorator registering a detector under one or more names.

    The first name is canonical (it becomes the instance's ``name``
    attribute if the class does not set one); the rest are aliases.  Keys
    are case-insensitive.  Re-registering a name overwrites it, which is
    deliberate: tests and downstream code may shadow a built-in with an
    instrumented variant.
    """
    if not names:
        raise AlgorithmError("register_detector needs at least one name")

    def decorate(cls: Type) -> Type:
        for name in names:
            _DETECTORS[name.lower()] = cls
        return cls

    return decorate


def get_detector(name: str) -> CommunityDetector:
    """Instantiate the detector registered under ``name``.

    Lookup is case-insensitive (``"OCA"``, ``"oca"`` and ``"CFinder"``
    all resolve), so the experiment figures' display labels double as
    registry keys.  Unknown names raise :class:`AlgorithmError` listing
    what is available.
    """
    try:
        cls = _DETECTORS[name.lower()]
    except KeyError:
        valid = ", ".join(available_detectors())
        raise AlgorithmError(
            f"unknown algorithm {name!r}; expected one of {valid}"
        ) from None
    return cls()


def resolve_detector(name: str, params: Mapping[str, Any]) -> CommunityDetector:
    """The detector registered under ``name``, with ``params`` checked.

    The one admission check of a request, run before anything touches
    its graph: the session, the serving manager (before it binds or
    evicts a session) and the serving queue's coalescer all call it.
    An unknown algorithm or parameter raises :class:`AlgorithmError`
    and a bad parameter value the detector's own error.  A detector
    without a ``check_params`` method is checked by name only.
    """
    detector = get_detector(name)
    check_params = getattr(detector, "check_params", None)
    if check_params is not None:
        check_params(params)
    return detector


def available_detectors() -> List[str]:
    """Sorted registry keys (including aliases)."""
    return sorted(_DETECTORS)
