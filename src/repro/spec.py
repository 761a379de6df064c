"""The run specification: the fields that decide a study's archive.

A :class:`StudySpec` is declared once and carried by every layer that
runs a study: :meth:`repro.study.Study.run` builds one from its keyword
arguments, the sharded runner ships it inside each
:class:`~repro.runner.ShardJob`, study-server submissions and campaign
specs embed it, and the ``ecnudp study`` / ``campaign run`` flags map
onto it one to one.  Execution knobs (worker counts, pools, progress
sinks) and observability switches stay outside: they change how a
study runs, never what it archives.

The JSON form (:meth:`StudySpec.to_json` / :meth:`StudySpec.from_json`)
is flat — ``scale``, ``seed``, ``traceroutes``, ``chaos`` (a profile
name), ``chaos_seed``, ``quic``, ``drift`` — and sparse: fields at
their defaults are omitted, except ``scale`` and ``seed``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .scenario.timeline import EpochDrift, drifted_params

if TYPE_CHECKING:
    from .faults.events import FaultPlan
    from .scenario.internet import SyntheticInternet

DEFAULT_SCALE = 0.1
DEFAULT_SEED = 20150401

#: Keys of the JSON form, in the order :meth:`StudySpec.to_json` writes them.
JSON_FIELDS = ("scale", "seed", "traceroutes", "chaos", "chaos_seed", "quic", "drift")


class ValidationError(ValueError):
    """A run spec, or a document carrying one, that fails validation.

    The message names the offending field.
    """


def number(payload: Mapping, name: str, default: float) -> float:
    """``payload[name]`` as a float: ints and floats only, never bools."""
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is out of range: {value!r}") from None


def integer(payload: Mapping, name: str, default: int) -> int:
    """``payload[name]`` as an int: no bools, no floats."""
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer: {value!r}")
    return value


def boolean(payload: Mapping, name: str, default: bool) -> bool:
    """``payload[name]`` as a bool: JSON ``true``/``false`` only."""
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a boolean: {value!r}")
    return value


@dataclass(frozen=True)
class StudySpec:
    """Everything that decides a study's archive, and nothing else.

    ``faults`` is ``None`` (no chaos), a chaos-profile name expanded
    against the built world with ``chaos_seed``, or a ready
    :class:`~repro.faults.FaultPlan`.  ``chaos_seed`` only means
    something next to a profile name and reads ``0`` otherwise, so two
    specs compare equal exactly when they run the same study.
    ``drift`` builds the world from longitudinally drifted parameters
    (one campaign epoch); ``None`` is the undrifted 2015 world.
    """

    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    traceroutes: bool = True
    quic: bool = False
    faults: str | FaultPlan | None = None
    chaos_seed: int = 0
    drift: EpochDrift | None = None

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValidationError(f"scale must be in (0, 1]: {self.scale!r}")
        if isinstance(self.faults, str):
            from .faults.profiles import PROFILES

            if self.faults not in PROFILES:
                known = ", ".join(sorted(PROFILES))
                raise ValidationError(
                    f"unknown chaos profile {self.faults!r}; one of: {known}"
                )
        elif self.chaos_seed:
            object.__setattr__(self, "chaos_seed", 0)

    # ------------------------------------------------------------------
    # JSON form
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The spec as a JSON object (sparse; see the module docstring)."""
        if self.faults is not None and not isinstance(self.faults, str):
            raise ValueError("a ready FaultPlan has no JSON form; name a chaos profile")
        payload: dict[str, Any] = {"scale": self.scale, "seed": self.seed}
        if not self.traceroutes:
            payload["traceroutes"] = False
        if self.faults is not None:
            payload["chaos"] = self.faults
            payload["chaos_seed"] = self.chaos_seed
        if self.quic:
            payload["quic"] = True
        if self.drift is not None:
            payload["drift"] = self.drift.to_dict()
        return payload

    @classmethod
    def from_json(cls, payload) -> StudySpec:
        """Validate a JSON object into a spec.

        Strict: unknown keys and wrongly typed values raise
        :class:`ValidationError` naming the field; nothing is coerced
        except ints to floats where a number is expected.
        """
        if not isinstance(payload, Mapping):
            raise ValidationError(f"run spec must be a JSON object: {payload!r}")
        unknown = sorted(str(key) for key in payload if key not in JSON_FIELDS)
        if unknown:
            raise ValidationError(f"unknown field(s): {', '.join(unknown)}")
        chaos = payload.get("chaos")
        if chaos is not None and not isinstance(chaos, str):
            raise ValidationError(f"chaos must be a chaos-profile name: {chaos!r}")
        drift = payload.get("drift")
        if drift is not None:
            if not isinstance(drift, Mapping) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in drift.values()
            ):
                raise ValidationError(f"drift must be an object of numbers: {drift!r}")
            try:
                drift = EpochDrift.from_dict(drift)
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"drift: {exc}") from None
        return cls(
            scale=number(payload, "scale", DEFAULT_SCALE),
            seed=integer(payload, "seed", DEFAULT_SEED),
            traceroutes=boolean(payload, "traceroutes", True),
            quic=boolean(payload, "quic", False),
            faults=chaos,
            chaos_seed=integer(payload, "chaos_seed", 0),
            drift=drift,
        )

    # ------------------------------------------------------------------
    # What the spec builds
    # ------------------------------------------------------------------
    def world_key(self) -> tuple:
        """The world-cache key: everything the built world depends on.

        That is ``scale``, ``seed``, ``drift`` and the fault plan (a
        profile name together with its chaos seed).  ``quic`` and
        ``traceroutes`` change what is probed, never the world, so
        specs differing only there share one cached world.
        """
        return (self.scale, self.seed, self.drift, self.faults, self.chaos_seed)

    def build_world(self) -> SyntheticInternet:
        """A fresh, fault-free world built from this spec's parameters."""
        from .scenario.internet import SyntheticInternet

        return SyntheticInternet(drifted_params(self.scale, self.seed, self.drift))

    def with_fault_plan(self, world: SyntheticInternet) -> StudySpec:
        """This spec with its chaos profile expanded into a plan for ``world``.

        A plan that schedules no events becomes ``None``, so such a run
        archives exactly like one without chaos.
        """
        plan = self.faults
        if isinstance(plan, str):
            from .faults import generate_fault_plan

            plan = generate_fault_plan(world, profile=plan, chaos_seed=self.chaos_seed)
        if plan is not None and not plan.events:
            plan = None
        return replace(self, faults=plan)

    @property
    def plan(self) -> FaultPlan | None:
        """``faults`` once :meth:`with_fault_plan` has expanded it."""
        assert not isinstance(self.faults, str), "expand the chaos profile first"
        return self.faults

    def probe_families(self) -> dict[str, bool]:
        """Keyword arguments switching optional probe families on in
        :class:`~repro.core.measurement.MeasurementApplication`."""
        return {"quic": self.quic}
