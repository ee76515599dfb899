"""Baseline escalation: degrade gracefully when PAGANI cannot finish.

The paper's §3.5 failure story ends with an honest flag: in high
dimensions the region list outgrows device memory and the run returns
``MEMORY_EXHAUSTED``.  A production service should do better than stop
there — this module re-runs the failed job down a configured *ladder* of
baseline integrators (default ``two_phase → vegas → qmc``, the
last-resort rungs in :data:`BASELINE_LAST_RESORT`), stopping at the
first rung that converges.

Honesty contract
----------------
An escalated result is **never relabeled** as a plain converged PAGANI
run.  The returned :class:`~repro.core.result.IntegrationResult` keeps
the final stage's own ``method`` and ``status``, and carries the full
per-stage history — original PAGANI attempt first — in its
``escalation`` field (:class:`~repro.core.result.EscalationStage`).
That provenance travels with the result through the in-memory cache,
the durable store and the HTTP payloads, and escalated jobs fingerprint
distinctly from native ones (the policy descriptor enters the cache
fingerprint), so a cache can never serve an escalated estimate to a
caller who asked for a native PAGANI run or vice versa.

If every rung fails too, the result with the smallest estimated
relative error (PAGANI's included) is returned, still flagged with its
own non-converged status and the complete history.

The *watchdog* is the stall half of the trigger: when the job did not
set ``max_iterations`` itself, the PAGANI attempt is capped at
``watchdog_iterations`` so a non-converging run reaches the ladder
instead of burning the full default iteration budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.result import EscalationStage, IntegrationResult, Status
from repro.errors import ConfigurationError

#: The baseline integrators a failed PAGANI job can fall back to.
#: Backend routing moves a PAGANI job between bit-identical execution
#: substrates; when PAGANI itself cannot finish (``MEMORY_EXHAUSTED``,
#: iteration watchdog), no substrate helps — the last resort is a
#: different *algorithm*.  Reachable only through an escalation policy,
#: never by the per-job backend router: an escalated result changes the
#: numbers, so it must change the fingerprint too, and routing never
#: does.
BASELINE_LAST_RESORT = ("two_phase", "vegas", "qmc")

#: default ladder — cheapest adequate baseline first (mirrors the
#: committed bench ordering; see docs/scenarios.md)
DEFAULT_LADDER: Tuple[str, ...] = BASELINE_LAST_RESORT

#: statuses that send a PAGANI result down the ladder
DEFAULT_TRIGGERS: Tuple[Status, ...] = (
    Status.MEMORY_EXHAUSTED,
    Status.NO_ACTIVE_REGIONS,
    Status.MAX_ITERATIONS,
)

_DEFAULT_WATCHDOG = 25
_DEFAULT_MAX_EVAL = 2_000_000

PolicyLike = Union[None, bool, str, dict, "EscalationPolicy"]


def _stage_from_result(result: IntegrationResult) -> EscalationStage:
    return EscalationStage(
        method=result.method or "pagani",
        status=result.status,
        estimate=result.estimate,
        errorest=result.errorest,
        neval=result.neval,
        iterations=result.iterations,
        wall_seconds=result.wall_seconds,
    )


@dataclass(frozen=True)
class EscalationPolicy:
    """What to do when a PAGANI run fails: the baseline ladder and knobs.

    ``describe()`` renders the canonical descriptor string — the value
    that enters cache fingerprints and job payloads — and
    ``parse(describe())`` round-trips.  ``triggers`` is an in-code
    testing knob and is *not* part of the descriptor; jobs configure the
    ladder, watchdog and stage budget only.
    """

    ladder: Tuple[str, ...] = DEFAULT_LADDER
    #: cap an uncapped PAGANI attempt at this many iterations (the stall
    #: watchdog); an explicit job ``max_iterations`` wins
    watchdog_iterations: int = _DEFAULT_WATCHDOG
    #: per-stage evaluation budget for the sampling baselines
    max_eval: int = _DEFAULT_MAX_EVAL
    triggers: Tuple[Status, ...] = field(default=DEFAULT_TRIGGERS)

    def __post_init__(self) -> None:
        ladder = tuple(str(m).strip() for m in self.ladder)
        if not ladder:
            raise ConfigurationError("escalation ladder must not be empty")
        for method in ladder:
            if method not in BASELINE_LAST_RESORT and method != "cuhre":
                raise ConfigurationError(
                    f"unknown escalation rung {method!r}; options: "
                    f"{sorted(set(BASELINE_LAST_RESORT) | {'cuhre'})}"
                )
        if len(set(ladder)) != len(ladder):
            raise ConfigurationError("escalation ladder repeats a rung")
        object.__setattr__(self, "ladder", ladder)
        if self.watchdog_iterations < 1:
            raise ConfigurationError("watchdog_iterations must be >= 1")
        if self.max_eval < 1:
            raise ConfigurationError("max_eval must be >= 1")

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Canonical descriptor, e.g. ``"two_phase>vegas>qmc;watchdog=8"``."""
        parts = [">".join(self.ladder)]
        if self.watchdog_iterations != _DEFAULT_WATCHDOG:
            parts.append(f"watchdog={self.watchdog_iterations}")
        if self.max_eval != _DEFAULT_MAX_EVAL:
            parts.append(f"max_eval={self.max_eval}")
        return ";".join(parts)

    @classmethod
    def parse(cls, value: PolicyLike) -> Optional["EscalationPolicy"]:
        """Resolve job-file / CLI spellings to a policy (``None`` = off).

        Accepts ``None``/``False`` (off), ``True``/``"default"`` (the
        default ladder), a descriptor string like
        ``"two_phase>vegas>qmc;watchdog=8;max_eval=500000"`` (commas
        also separate rungs), a dict with ``ladder`` /
        ``watchdog_iterations`` / ``max_eval`` keys, or a policy
        instance (returned as-is).
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, EscalationPolicy):
            return value
        if isinstance(value, dict):
            unknown = set(value) - {"ladder", "watchdog_iterations", "max_eval"}
            if unknown:
                raise ConfigurationError(
                    f"unknown escalation keys {sorted(unknown)}"
                )
            kwargs = dict(value)
            ladder = kwargs.pop("ladder", None)
            if ladder is not None:
                if isinstance(ladder, str):
                    ladder = cls._parse_ladder(ladder)
                kwargs["ladder"] = tuple(ladder)
            return cls(**kwargs)
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("", "default", "on", "true"):
                return cls()
            if text in ("off", "false", "none"):
                return None
            parts = [p.strip() for p in text.split(";") if p.strip()]
            kwargs = {"ladder": cls._parse_ladder(parts[0])}
            for part in parts[1:]:
                key, sep, raw = part.partition("=")
                if not sep:
                    raise ConfigurationError(
                        f"expected 'key=value' in escalation descriptor, "
                        f"got {part!r}"
                    )
                key = key.strip()
                if key == "watchdog":
                    kwargs["watchdog_iterations"] = int(raw)
                elif key == "max_eval":
                    kwargs["max_eval"] = int(raw)
                else:
                    raise ConfigurationError(
                        f"unknown escalation descriptor key {key!r} "
                        "(options: watchdog, max_eval)"
                    )
            return cls(**kwargs)
        raise ConfigurationError(
            f"cannot parse escalation policy from {value!r}"
        )

    @staticmethod
    def _parse_ladder(text: str) -> Tuple[str, ...]:
        seps = ">" if ">" in text else ","
        return tuple(p.strip() for p in text.split(seps) if p.strip())

    # ------------------------------------------------------------------
    def should_escalate(self, result: IntegrationResult) -> bool:
        """Does ``result`` (a finished PAGANI attempt) trigger the ladder?"""
        return result.status in self.triggers

    def apply(
        self,
        integrand: Callable,
        ndim: int,
        request,
        first_result: IntegrationResult,
        *,
        device=None,
        cancel_check: Optional[Callable[[], bool]] = None,
        bounds: Optional[Sequence[Sequence[float]]] = None,
    ) -> IntegrationResult:
        """Run the ladder for a failed PAGANI attempt; return the outcome.

        ``request`` supplies the tolerances/bounds/filtering the stages
        must honour (an :class:`~repro.api.IntegrationRequest`; the
        explicit ``bounds`` argument wins when the caller resolved them
        separately, as the service does).  ``cancel_check`` is polled
        between stages — when it reports True the ladder stops early and
        the best result so far is returned with the partial history (the
        caller's cancellation machinery decides what to surface).

        ``device`` intentionally does not thread into the stages: a
        virtual device hosts one run at a time, so each stage builds its
        own.
        """
        from repro.api import IntegrationRequest, integrate

        stages: List[EscalationStage] = [_stage_from_result(first_result)]
        candidates: List[IntegrationResult] = [first_result]
        final: Optional[IntegrationResult] = None
        stage_bounds = bounds if bounds is not None else request.bounds
        for method in self.ladder:
            if cancel_check is not None and cancel_check():
                break
            stage_request = IntegrationRequest(
                bounds=stage_bounds,
                rel_tol=request.rel_tol,
                abs_tol=request.abs_tol,
                max_iterations=request.max_iterations,
                relerr_filtering=request.relerr_filtering,
                method=method,
            )
            start = time.perf_counter()
            try:
                stage_result = integrate(
                    integrand, ndim, request=stage_request,
                    max_eval=self.max_eval,
                )
            except Exception as exc:  # a rung crashing must not kill the job
                stages.append(
                    EscalationStage(
                        method=method,
                        status=Status.MAX_EVALUATIONS,
                        wall_seconds=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            stages.append(_stage_from_result(stage_result))
            candidates.append(stage_result)
            if stage_result.converged:
                final = stage_result
                break
        if final is None:
            # ladder exhausted (or cancelled): most accurate honest answer
            final = min(candidates, key=lambda r: r.rel_errorest)
        final.escalation = stages
        return final
