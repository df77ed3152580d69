"""Seeded serving-workload generation.

Every random draw follows the same discipline as :mod:`repro.sim.faults`:
it comes from a named stream ``rng_for(seed, "serve", rid, kind)`` and is
therefore a pure function of ``(seed, rid)`` — regenerating the workload
for a preempted request (or on another rank) reproduces it bit-for-bit.

Output lengths are bimodal (mostly short, a tail of long generations),
which is the regime where continuous batching beats static batching: a
static batch stalls on its longest member while continuous batching
backfills freed slots.

Shared prefixes
---------------
With ``prefix_pool > 0`` every prompt starts with one of a small pool of
shared prefixes (system prompts, few-shot templates), drawn Zipf-style so
a handful of prefixes dominate — the regime where paged prefix sharing
pays.  The pool's token content is itself seeded (streams
``("serve", "prefixpool", pid, ...)``), so two requests drawing the same
``prefix_id`` share *bitwise identical* prefix tokens and the paged
cache's hash-keyed block reuse fires deterministically.

Priority classes
----------------
``priorities`` tags each request with a class (drawn from stream
``("serve", rid, "prio")`` by class weight) carrying an optional TTFT
deadline; the paged scheduler admits higher classes first,
earliest-deadline-first inside a class, and the report breaks SLO
attainment out per class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.util.rng import rng_for

__all__ = ["PriorityClass", "WorkloadConfig", "Request", "generate_workload"]


@dataclass(frozen=True)
class PriorityClass:
    """One scheduling class: a draw weight and an optional TTFT deadline.

    Lower list position = higher priority.  ``ttft_slo_s`` is the
    time-to-first-token deadline measured from arrival; ``None`` means
    best-effort (always "attained" for SLO accounting purposes, and
    reported as such).
    """

    name: str
    weight: float = 1.0
    ttft_slo_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("priority class needs a name")
        if not self.weight > 0:
            raise ConfigError("priority class weight must be positive")
        if self.ttft_slo_s is not None and not self.ttft_slo_s > 0:
            raise ConfigError("ttft_slo_s must be positive when set")


@dataclass(frozen=True)
class WorkloadConfig:
    """A seeded open-loop arrival process with per-request token traces."""

    seed: int = 0
    num_requests: int = 32
    arrival_rate: float = 64.0  #: mean requests per simulated second
    burst_size: int = 1  #: arrivals land in groups of this size
    prompt_len: tuple[int, int] = (4, 12)  #: inclusive range
    output_short: tuple[int, int] = (8, 16)
    output_long: tuple[int, int] = (48, 64)
    long_frac: float = 0.2  #: fraction of requests with long outputs
    vocab: int = 32
    #: diurnal load modulation: the instantaneous arrival rate swings
    #: sinusoidally by ``+- diurnal_amplitude`` around ``arrival_rate``
    #: over a period of ``diurnal_period`` simulated seconds (0 = flat).
    #: Still a pure function of (seed, rid): each gap is drawn from the
    #: flat process, then stretched by the inverse relative rate at the
    #: burst leader's arrival time.
    diurnal_period: float = 0.0
    diurnal_amplitude: float = 0.0
    #: shared-prefix population: with ``prefix_pool > 0`` every prompt is
    #: ``pool_prefix + unique_suffix``; the prefix id is drawn Zipf-style
    #: (exponent ``prefix_zipf``) so low ids dominate.  ``prompt_len``
    #: then ranges the *suffix* length only.
    prefix_pool: int = 0
    prefix_len: tuple[int, int] = (16, 32)  #: inclusive pool-prefix range
    prefix_zipf: float = 1.2
    #: scheduling classes (empty = single best-effort class, priority 0)
    priorities: tuple[PriorityClass, ...] = ()

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ConfigError(
                f"num_requests must be positive, got {self.num_requests}")
        if not self.arrival_rate > 0:
            raise ConfigError(
                f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.burst_size <= 0:
            raise ConfigError(
                f"burst_size must be positive, got {self.burst_size}")
        if not 0.0 <= self.long_frac <= 1.0:
            raise ConfigError(
                f"long_frac must be in [0, 1], got {self.long_frac}")
        for name in ("prompt_len", "output_short", "output_long"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigError(f"bad {name} range ({lo}, {hi})")
        if not self.diurnal_period >= 0:
            raise ConfigError("diurnal_period must be >= 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError(
                "diurnal_amplitude must be in [0, 1) — the instantaneous "
                "rate must stay positive"
            )
        if self.diurnal_amplitude > 0 and self.diurnal_period <= 0:
            raise ConfigError(
                "diurnal_amplitude needs a positive diurnal_period"
            )
        if self.prefix_pool < 0:
            raise ConfigError(
                f"prefix_pool must be >= 0, got {self.prefix_pool}")
        if self.prefix_pool > 0:
            lo, hi = self.prefix_len
            if not 1 <= lo <= hi:
                raise ConfigError(f"bad prefix_len range ({lo}, {hi})")
            if not self.prefix_zipf > 0:
                raise ConfigError("prefix_zipf must be positive")

    @property
    def max_request_tokens(self) -> int:
        """Worst-case prompt + output tokens of any request."""
        prefix = self.prefix_len[1] if self.prefix_pool > 0 else 0
        return prefix + self.prompt_len[1] + self.output_long[1]


@dataclass(frozen=True)
class Request:
    """One request: arrival time plus its full, pre-drawn token trace.

    The output tokens are part of the *workload*, not sampled from model
    logits — decoding replays this trace, which keeps every schedule
    (including preemption + re-prefill) deterministic and independent of
    numeric mode (symbolic runs carry no logit values at all).
    """

    rid: int
    arrival: float
    prompt_tokens: tuple[int, ...]
    output_tokens: tuple[int, ...]
    #: index of the shared pool prefix this prompt starts with (None when
    #: the workload has no prefix pool)
    prefix_id: int | None = None
    #: priority class index (0 = highest; 0 also when untagged)
    priority: int = 0
    #: TTFT deadline in seconds from arrival; None = best-effort
    ttft_slo_s: float | None = None

    @property
    def ttft_deadline(self) -> float | None:
        """Absolute virtual-clock deadline for the first token."""
        if self.ttft_slo_s is None:
            return None
        return self.arrival + self.ttft_slo_s

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_tokens)

    @property
    def output_len(self) -> int:
        return len(self.output_tokens)

    @property
    def total_tokens(self) -> int:
        return self.prompt_len + self.output_len


def _draw_int(seed: int, rid: int, kind: str, lo: int, hi: int) -> int:
    return int(rng_for(seed, "serve", rid, kind).integers(lo, hi + 1))


def _relative_rate(cfg: WorkloadConfig, t: float) -> float:
    """Instantaneous arrival rate at time ``t`` relative to the mean.

    ``1 + amplitude * sin(2*pi*t/period)`` — peak load one quarter period
    in, trough at three quarters, exactly the diurnal shape autoscaler
    tests need (rush hour then overnight lull).
    """
    if cfg.diurnal_amplitude <= 0.0:
        return 1.0
    return 1.0 + cfg.diurnal_amplitude * math.sin(
        2.0 * math.pi * t / cfg.diurnal_period
    )


def _pool_prefix(cfg: WorkloadConfig, pid: int) -> tuple[int, ...]:
    """The pool prefix ``pid``'s token trace — a pure function of the seed
    (streams named by pid, not rid, so every request drawing ``pid`` gets
    bitwise-identical tokens)."""
    lo, hi = cfg.prefix_len
    length = int(
        rng_for(cfg.seed, "serve", "prefixpool", pid, "len").integers(
            lo, hi + 1
        )
    )
    return tuple(
        int(t)
        for t in rng_for(cfg.seed, "serve", "prefixpool", pid,
                         "tokens").integers(0, cfg.vocab, size=length)
    )


def _draw_prefix_id(cfg: WorkloadConfig, rid: int) -> int:
    """Zipf-distributed pool index: P(pid) ∝ (pid + 1) ** -prefix_zipf."""
    weights = [(p + 1) ** -cfg.prefix_zipf for p in range(cfg.prefix_pool)]
    total = sum(weights)
    u = float(rng_for(cfg.seed, "serve", rid, "prefix").random()) * total
    acc = 0.0
    for pid, w in enumerate(weights):
        acc += w
        if u < acc:
            return pid
    return cfg.prefix_pool - 1


def _draw_priority(cfg: WorkloadConfig, rid: int) -> int:
    """Class index by weight from the ``prio`` stream (0 when untagged)."""
    if not cfg.priorities:
        return 0
    total = sum(c.weight for c in cfg.priorities)
    u = float(rng_for(cfg.seed, "serve", rid, "prio").random()) * total
    acc = 0.0
    for idx, cls in enumerate(cfg.priorities):
        acc += cls.weight
        if u < acc:
            return idx
    return len(cfg.priorities) - 1


def generate_workload(cfg: WorkloadConfig) -> list[Request]:
    """Materialize the full request list for ``cfg`` (sorted by arrival).

    A sweep runs several arms over identical traffic, so the last few
    configurations' requests are kept: the list is new on every call, the
    frozen :class:`Request` objects in it are shared.
    """
    return list(_generate(cfg))


@functools.lru_cache(maxsize=8)
def _generate(cfg: WorkloadConfig) -> tuple[Request, ...]:
    pool = [_pool_prefix(cfg, pid) for pid in range(cfg.prefix_pool)]
    requests = []
    arrival = 0.0
    for rid in range(cfg.num_requests):
        if rid % cfg.burst_size == 0:
            # Group leader draws the inter-burst gap; scaling the mean by
            # burst_size keeps the long-run arrival rate at arrival_rate.
            gap = float(
                rng_for(cfg.seed, "serve", rid, "gap").exponential(
                    cfg.burst_size / cfg.arrival_rate
                )
            )
            # Diurnal modulation: stretch the flat-process gap by the
            # inverse relative rate at the current time — arrivals bunch
            # up at the peak and thin out in the trough, while each draw
            # stays a pure function of (seed, rid).
            arrival += gap / _relative_rate(cfg, arrival)
        p_len = _draw_int(cfg.seed, rid, "plen", *cfg.prompt_len)
        is_long = (
            float(rng_for(cfg.seed, "serve", rid, "kind").random())
            < cfg.long_frac
        )
        rng_name = "olen"
        lo, hi = cfg.output_long if is_long else cfg.output_short
        o_len = _draw_int(cfg.seed, rid, rng_name, lo, hi)
        prompt = tuple(
            int(t)
            for t in rng_for(cfg.seed, "serve", rid, "prompt").integers(
                0, cfg.vocab, size=p_len
            )
        )
        prefix_id = None
        if cfg.prefix_pool > 0:
            prefix_id = _draw_prefix_id(cfg, rid)
            prompt = pool[prefix_id] + prompt
        priority = _draw_priority(cfg, rid)
        slo = (cfg.priorities[priority].ttft_slo_s
               if cfg.priorities else None)
        output = tuple(
            int(t)
            for t in rng_for(cfg.seed, "serve", rid, "output").integers(
                0, cfg.vocab, size=o_len
            )
        )
        requests.append(
            Request(rid=rid, arrival=arrival, prompt_tokens=prompt,
                    output_tokens=output, prefix_id=prefix_id,
                    priority=priority, ttft_slo_s=slo)
        )
    return tuple(requests)
