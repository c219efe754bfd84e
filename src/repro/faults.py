"""Deterministic, seeded fault injection for the durability/liveness layers.

Long-running ROM services fail in ways unit tests never exercise on their
own: a torn write surfacing after a power loss, ``ENOSPC`` mid-write, a
worker thread hung inside a sparse factorisation, a flaky solver backend.
This module makes those failures *first-class and reproducible*: a
:class:`FaultPlan` is a seeded list of :class:`FaultRule`\\ s, each matching a
named **fault site** by glob pattern and firing a specific fault kind with a
per-site probability or on an exact call number.

The package's durability and liveness boundaries call :func:`fault_point`
with their site name; with no active plan that is a single ``None`` check —
zero overhead in production.  With a plan active (``repro serve
--fault-plan``, ``repro chaos``, or :func:`injected_faults` in tests) the
call deterministically raises, hangs, or instructs the caller to corrupt its
write.

Fault sites wired through the package:

==============================  =============================================
``serialization.dump_json``     atomic JSON writes (specs, manifests)
``serialization.save_npz``      generic ``.npz`` bundle writes
``rom_cache.put``               ROM bundle writes into the shared cache
``service.jobs.persist``        per-job JSON records of the :class:`JobStore`
``service.pool.worker``         worker behaviour at attempt start
``fem.backends.<name>``         sparse solves through a named backend
==============================  =============================================

Fault kinds:

``torn_write``
    The write "succeeds" but the destination holds truncated bytes — the
    classic power-loss-after-rename artifact.  Detected later by the
    checksum verification of the reader, which quarantines the file.
``enospc`` / ``eio``
    ``OSError`` with ``errno`` ``ENOSPC`` / ``EIO`` raised at the site.
``crash``
    :class:`SimulatedCrashError` raised at the site; at write sites the
    atomic writer raises it *after* the rename (rename-then-crash).
``hang``
    The call blocks for ``hang_seconds`` (interruptible in small slices) —
    stale heartbeats for the :class:`~repro.service.watchdog.WorkerWatchdog`
    to reap.
``transient``
    :class:`TransientFaultError` raised at the site — a one-off failure the
    retry/fallback machinery should absorb.
"""

from __future__ import annotations

import errno
import fnmatch
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import ValidationError

#: Environment variable ``repro serve``/``repro chaos`` read a plan from:
#: either a path to a plan JSON file or an inline JSON document.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every fault kind a rule may request.
FAULT_KINDS = ("torn_write", "enospc", "eio", "crash", "hang", "transient")

#: Kinds returned to the call site as a directive instead of raised here
#: (they need the caller's cooperation: corrupting bytes, crashing after the
#: rename).
_DIRECTIVE_KINDS = ("torn_write", "crash")


class SimulatedCrashError(RuntimeError):
    """An injected process-crash stand-in (kind ``"crash"``).

    Deliberately *not* part of the :mod:`repro.errors` taxonomy: a crash is
    an unexpected failure, so the service's transient-retry path must treat
    it exactly like any foreign exception.
    """


class TransientFaultError(RuntimeError):
    """An injected one-off failure (kind ``"transient"``); retries succeed."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, and how often.

    Attributes
    ----------
    site:
        Glob pattern matched (``fnmatch``-style, case-sensitive) against the
        fault-site name, e.g. ``"rom_cache.put"`` or ``"service.*"``.
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Chance that a matching call fires, drawn from the plan's seeded RNG.
    nth:
        Fire exactly on the nth matching call (1-based) instead of by
        probability.  Implies ``max_triggers=1`` unless set explicitly.
    max_triggers:
        Stop firing after this many triggers (``None`` = unbounded).
    hang_seconds:
        Duration of a ``"hang"`` fault.
    """

    site: str
    kind: str
    probability: float = 1.0
    nth: int | None = None
    max_triggers: int | None = None
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValidationError("fault rule: site pattern must be non-empty")
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"fault rule: kind must be one of {list(FAULT_KINDS)}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"fault rule: probability must lie in [0, 1], got {self.probability}"
            )
        if self.nth is not None and self.nth < 1:
            raise ValidationError(f"fault rule: nth must be >= 1, got {self.nth}")
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ValidationError(
                f"fault rule: max_triggers must be >= 1, got {self.max_triggers}"
            )
        if self.hang_seconds < 0:
            raise ValidationError(
                f"fault rule: hang_seconds must be >= 0, got {self.hang_seconds}"
            )

    @property
    def effective_max_triggers(self) -> int | None:
        """``nth`` rules fire once unless told otherwise."""
        if self.max_triggers is not None:
            return self.max_triggers
        return 1 if self.nth is not None else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "nth": self.nth,
            "max_triggers": self.max_triggers,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        allowed = {"site", "kind", "probability", "nth", "max_triggers", "hang_seconds"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValidationError(f"fault rule has unknown fields {unknown}")
        missing = [name for name in ("site", "kind") if name not in data]
        if missing:
            raise ValidationError(f"fault rule is missing fields {missing}")
        return cls(**dict(data))


@dataclass
class _RuleState:
    """Mutable per-rule counters (calls seen, faults fired)."""

    calls: int = 0
    triggers: int = 0


@dataclass
class FaultPlan:
    """A seeded, deterministic set of fault rules plus its firing log.

    Two plans with the same seed and rules fire identically against the same
    call sequence, which is what makes chaos scenarios replayable.  All state
    access is lock-protected — many worker threads hit fault points
    concurrently.

    Attributes
    ----------
    seed:
        Seed of the RNG that draws probabilistic triggers.
    rules:
        The ordered rules; the first matching, armed rule wins per call.
    fired:
        Log of every fired fault, ``{"site", "kind", "call"}`` — chaos tests
        reconcile quarantine counters against this.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    fired: list[dict[str, Any]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.rules = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in self.rules
        )
        self._rng = random.Random(self.seed)
        self._states = [_RuleState() for _ in self.rules]
        self._lock = threading.Lock()
        self._hangs_released = threading.Event()

    # ------------------------------------------------------------------ #
    # construction / serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"fault plan: expected a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"seed", "rules"})
        if unknown:
            raise ValidationError(f"fault plan has unknown fields {unknown}")
        rules = data.get("rules", ())
        if not isinstance(rules, (list, tuple)):
            raise ValidationError("fault plan: rules must be a list")
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"fault plan: invalid JSON ({exc})") from exc
        return cls.from_dict(document)

    @classmethod
    def from_file(cls, path: "str | Path") -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """Plan named by :data:`FAULT_PLAN_ENV` (path or inline JSON), if any."""
        value = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not value:
            return None
        if value.startswith("{"):
            return cls.from_json(value)
        return cls.from_file(value)

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #
    def fire(self, site: str) -> str | None:
        """Evaluate the rules for one call at ``site``; act on a match.

        Raises the fault for self-contained kinds, blocks for ``"hang"``,
        and returns the kind for directive kinds (:data:`_DIRECTIVE_KINDS`)
        the call site must act on itself.  Returns ``None`` when nothing
        fires.
        """
        matched: FaultRule | None = None
        with self._lock:
            for rule, state in zip(self.rules, self._states):
                if not fnmatch.fnmatchcase(site, rule.site):
                    continue
                state.calls += 1
                cap = rule.effective_max_triggers
                if cap is not None and state.triggers >= cap:
                    continue
                if rule.nth is not None:
                    if state.calls != rule.nth:
                        continue
                elif rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                state.triggers += 1
                self.fired.append(
                    {"site": site, "kind": rule.kind, "call": state.calls}
                )
                matched = rule
                break
        if matched is None:
            return None
        kind = matched.kind
        if kind == "hang":
            self._hang(matched.hang_seconds)
            return None
        if kind == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected fault: no space left on device at {site}"
            )
        if kind == "eio":
            raise OSError(errno.EIO, f"injected fault: input/output error at {site}")
        if kind == "transient":
            raise TransientFaultError(f"injected transient fault at {site}")
        return kind  # torn_write / crash: the caller cooperates

    def _hang(self, seconds: float) -> None:
        """Block for ``seconds``, waking early if the plan releases hangs."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if self._hangs_released.wait(timeout=0.025):
                return

    def release_hangs(self) -> None:
        """Wake every thread currently sleeping in a ``"hang"`` fault."""
        self._hangs_released.set()

    def fired_counts(self) -> dict[str, int]:
        """Number of fired faults per ``"site:kind"`` label."""
        counts: dict[str, int] = {}
        with self._lock:
            for event in self.fired:
                label = f"{event['site']}:{event['kind']}"
                counts[label] = counts.get(label, 0) + 1
        return counts


#: The process-wide active plan.  ``None`` keeps every fault point at a
#: single attribute load + identity check — the zero-overhead guarantee.
_ACTIVE: FaultPlan | None = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide active fault plan."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    """Remove the active plan (releasing any injected hangs first)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.release_hangs()
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The currently active plan, if any."""
    return _ACTIVE


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager activating ``plan`` for the enclosed block."""
    previous = _ACTIVE
    activate(plan)
    try:
        yield plan
    finally:
        if plan is not None:
            plan.release_hangs()
        globals()["_ACTIVE"] = previous


def fault_point(site: str) -> str | None:
    """Declare a named fault site; fire the active plan's matching rule.

    Returns ``None`` (the overwhelmingly common case), raises an injected
    exception, blocks for a ``"hang"``, or returns a directive string
    (``"torn_write"`` / ``"crash"``) for the call site to act on.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site)


__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrashError",
    "TransientFaultError",
    "activate",
    "active_plan",
    "deactivate",
    "fault_point",
    "injected_faults",
]
