"""Congestion-control mechanism selection for an experiment.

The paper evaluates exactly one mechanism — IB FECN/BECN CCT
throttling — against one parameter set. :class:`CCConfig` makes the
mechanism itself an experiment axis: it names an entry of
:data:`repro.cc.MECHANISMS` and carries its per-mechanism parameter
overrides, and it participates in the result-store content key
(:func:`cc_config_to_dict`, cross-referenced by simlint KEY001) so an
arena cell never aliases a cache entry of a different mechanism.

``params`` is stored as a sorted tuple of ``(name, value)`` pairs —
hashable (the enclosing dataclasses are frozen) and deterministic in
serialization order regardless of how the mapping was supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

#: The paper's mechanism; the default everywhere a CCConfig is absent.
DEFAULT_MECHANISM = "ib"


@dataclass(frozen=True)
class CCConfig:
    """Which congestion-control mechanism a run uses, and how tuned.

    ``mechanism`` names an entry of :data:`repro.cc.MECHANISMS`
    (``"dcqcn"``, ``"dctcp"``, ``"ib"``, ``"reno"``); ``params``
    overrides that mechanism's default options. Construct with keyword overrides
    through :meth:`make`::

        CCConfig.make("dctcp", gain=0.125)
    """

    mechanism: str = DEFAULT_MECHANISM
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def make(cls, mechanism: str = DEFAULT_MECHANISM, **params: Any) -> "CCConfig":
        """Build a config from keyword parameter overrides."""
        return cls(mechanism=mechanism, params=tuple(sorted(params.items())))

    def params_dict(self) -> Dict[str, Any]:
        """The parameter overrides as a plain dict."""
        return dict(self.params)

    def validate(self) -> "CCConfig":
        """Check the mechanism exists and every override names a real
        option; raises ``ValueError`` with an actionable message."""
        from repro.cc import find_mechanism

        defaults = find_mechanism(self.mechanism).defaults
        unknown = sorted(set(self.params_dict()) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown {self.mechanism!r} parameter(s) "
                f"{', '.join(unknown)}; available: "
                + (", ".join(sorted(defaults)) or "(none)")
            )
        return self

    def resolved_options(self) -> Dict[str, Any]:
        """Mechanism defaults merged with this config's overrides."""
        from repro.cc import find_mechanism

        options = dict(find_mechanism(self.mechanism).defaults)
        options.update(self.params_dict())
        return options


def cc_config_to_dict(cc: CCConfig) -> dict:
    """Serialize for the result-store content key (store.config_to_dict).

    Hand-rolled (not ``asdict``) so simlint KEY001 can cross-reference
    every :class:`CCConfig` field against the emitted keys.
    """
    return {
        "mechanism": cc.mechanism,
        "params": {str(k): v for k, v in cc.params},
    }


def cc_config_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[CCConfig]:
    """Inverse of :func:`cc_config_to_dict`; ``None`` passes through."""
    if data is None:
        return None
    return CCConfig.make(data["mechanism"], **dict(data.get("params", {})))
