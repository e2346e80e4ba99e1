"""Deterministic, seed-driven fault injection for the execution layer.

Every sweep point, compile and daemon batch runs in the calling
process, and what fails there is what fails in production: transient
exceptions fire, allocations fail, schedule-cache entries rot on disk,
a step stalls.  This module makes each of those failures *injectable on
demand* at named fault points, so the chaos suite can prove that a
request either fails with a typed error or answers exactly what a
fault-free run answers.

Model
-----
A :class:`FaultPlan` is a seed plus an ordered list of
:class:`FaultRule`\\ s.  Each rule names a fault *site* (glob pattern
over the registry in :data:`FAULT_SITES`), a fault *kind*, and when to
fire: either an explicit list of invocation indices (``at``) or a
probability evaluated through a pure hash of ``(seed, rule, site,
index)`` — never :mod:`random` state — so the same plan injects the
same faults in every process that replays the same call sequence.

The process-wide :class:`FaultInjector` owns the active plan and the
per-site invocation counters.  Instrumented code calls
:func:`fault_point` at each site; with no plan installed that is a
single global load and compare, so production runs pay nothing.

A fresh process adopts a plan from the ``REPRO_FAULT_PLAN``
environment variable (JSON, see :meth:`FaultPlan.to_json`) the first
time a fault point runs, so a CLI command or a daemon can be started
under a plan; :func:`install_plan` activates one in the calling
process only.

Fault kinds
-----------
``transient``
    raises :class:`InjectedFault` (a retryable error).
``hang``
    sleeps ``hang_seconds`` and then continues normally: the run is
    merely slower (a daemon request past its deadline answers 504).
``oom``
    raises :class:`MemoryError` (simulated allocation failure).
``corrupt``
    flips bytes of the file named by the fault point's ``path`` context
    (compile-cache entries); the checksum-validating loader must
    treat the damage as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "clear_plan",
    "fault_point",
    "install_plan",
]

#: Environment variable a fresh process adopts its plan (JSON) from.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The supported fault kinds (see module docstring).
FAULT_KINDS = ("transient", "hang", "oom", "corrupt")

#: Registry of the named fault points instrumented across the codebase.
#: Purely descriptive — :func:`fault_point` accepts any site name — but
#: rules are validated against it unless they use a glob, and
#: ``docs/robustness.md`` renders this table.
FAULT_SITES: Dict[str, str] = {
    "compile.kernel": "compile_kernel, before the II search",
    "cache.load": "ScheduleCache.load, before reading an entry (path)",
    "cache.store": "ScheduleCache.store, after writing an entry (path)",
    "sim.run": "StreamProcessor.run, before executing a program",
    "model.predict": "predict_application, before the closed-form eval",
}


class InjectedFault(RuntimeError):
    """A transient failure injected by the active :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, and when to fire.

    ``at`` (explicit invocation indices) and ``probability`` compose:
    an index listed in ``at`` always fires, otherwise the hash draw
    against ``probability`` decides.  ``max_fires`` is a per-process
    safety valve so recovery paths can eventually make progress; the
    pure decision function itself (:meth:`FaultPlan.decide`) ignores
    it.
    """

    site: str
    kind: str
    at: Tuple[int, ...] = ()
    probability: float = 0.0
    max_fires: Optional[int] = None
    hang_seconds: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be within [0, 1]")
        if ("*" not in self.site and "?" not in self.site
                and self.site not in FAULT_SITES):
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"one of {sorted(FAULT_SITES)} (or a glob)"
            )

    def matches(self, site: str) -> bool:
        from fnmatch import fnmatchcase

        return fnmatchcase(site, self.site)

    def as_dict(self) -> Dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "at": list(self.at),
            "probability": self.probability,
            "max_fires": self.max_fires,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultRule":
        return cls(
            site=data["site"],
            kind=data["kind"],
            at=tuple(int(i) for i in data.get("at", ())),
            probability=float(data.get("probability", 0.0)),
            max_fires=data.get("max_fires"),
            hang_seconds=float(data.get("hang_seconds", 0.05)),
        )


def _hash_draw(seed: int, rule_index: int, site: str, index: int) -> float:
    """A pure uniform draw in [0, 1) — identical in every process."""
    digest = hashlib.sha256(
        f"{seed}|{rule_index}|{site}|{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus ordered rules; the unit of chaos-test configuration."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def decide(self, site: str, index: int) -> Optional[FaultRule]:
        """The rule firing at invocation ``index`` of ``site``, if any.

        A pure function of ``(plan, site, index)`` — no process state —
        which is what makes injected fault sequences reproducible
        across processes (the chaos suite's determinism property).
        """
        for rule_index, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            if index in rule.at:
                return rule
            if rule.probability > 0.0 and (
                _hash_draw(self.seed, rule_index, site, index)
                < rule.probability
            ):
                return rule
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [r.as_dict() for r in self.rules]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", ())
            ),
        )


class FaultInjector:
    """Process-wide owner of the active plan and per-site counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._indices: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}
        self.fired: List[Tuple[str, int, str]] = []  # (site, index, kind)

    def fire(self, site: str, path: Optional[os.PathLike] = None) -> None:
        """Evaluate the plan at ``site``; inject the matched fault."""
        index = self._indices.get(site, 0)
        self._indices[site] = index + 1
        rule = self.plan.decide(site, index)
        if rule is None:
            return
        rule_id = id(rule)
        if rule.max_fires is not None:
            if self._fires.get(rule_id, 0) >= rule.max_fires:
                return
        self._fires[rule_id] = self._fires.get(rule_id, 0) + 1
        self.fired.append((site, index, rule.kind))
        self._execute(rule, site, index, path)

    def _execute(
        self,
        rule: FaultRule,
        site: str,
        index: int,
        path: Optional[os.PathLike],
    ) -> None:
        label = f"injected {rule.kind} at {site}[{index}]"
        if rule.kind == "transient":
            raise InjectedFault(label)
        if rule.kind == "oom":
            raise MemoryError(label)
        if rule.kind == "hang":
            time.sleep(rule.hang_seconds)
            return
        # corrupt: damage the file behind the fault point, if any; the
        # checksum-validating loader must shrug it off as a miss.
        if path is not None:
            _corrupt_file(path)


def _corrupt_file(path: os.PathLike) -> None:
    """Deterministically flip bytes in ``path`` (best effort)."""
    try:
        with open(path, "r+b") as handle:
            data = handle.read()
            if not data:
                return
            middle = len(data) // 2
            damaged = (
                data[:middle]
                + bytes([data[middle] ^ 0xFF])
                + data[middle + 1:]
            )
            handle.seek(0)
            handle.write(damaged)
            handle.truncate()
    except OSError:
        pass


# --- process-wide state -------------------------------------------------

_INJECTOR: Optional[FaultInjector] = None
_ENV_CHECKED = False


def install_plan(plan: FaultPlan) -> FaultInjector:
    """Activate ``plan`` in this process; returns the live injector."""
    global _INJECTOR, _ENV_CHECKED
    _INJECTOR = FaultInjector(plan)
    _ENV_CHECKED = True
    return _INJECTOR


def clear_plan() -> None:
    """Deactivate fault injection in this process (a plan in
    ``REPRO_FAULT_PLAN`` is not adopted afterwards either)."""
    global _INJECTOR, _ENV_CHECKED
    _INJECTOR = None
    _ENV_CHECKED = True


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any (checks the env lazily)."""
    _check_env()
    return _INJECTOR.plan if _INJECTOR is not None else None


def active_injector() -> Optional[FaultInjector]:
    """The live injector, if a plan is active."""
    _check_env()
    return _INJECTOR


def _check_env() -> None:
    """Adopt a plan from ``REPRO_FAULT_PLAN`` once per process."""
    global _ENV_CHECKED, _INJECTOR
    if _ENV_CHECKED:
        return
    _ENV_CHECKED = True
    text = os.environ.get(PLAN_ENV)
    if text:
        try:
            _INJECTOR = FaultInjector(FaultPlan.from_json(text))
        except (ValueError, KeyError, TypeError):
            _INJECTOR = None


def fault_point(site: str, path: Optional[os.PathLike] = None) -> None:
    """Declare one named fault point; fires the active plan, if any.

    The no-plan fast path is a module-global load and an ``if`` — cheap
    enough for once-per-task and once-per-compile sites.
    """
    if not _ENV_CHECKED:
        _check_env()
    if _INJECTOR is not None:
        _INJECTOR.fire(site, path=path)
