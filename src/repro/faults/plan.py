"""Declarative fault schedules.

A :class:`FaultPlan` is pure data: *what* can go wrong, *when* (iteration
windows), and *how often* (probabilities resolved by the injector's seeded
streams).  Plans are frozen and hashable so experiments can sweep them, and
a plan that schedules nothing is an exact no-op when installed.

Iteration windows use the worker-local 1-based step index and are
half-open: ``[start, stop)`` with ``stop=None`` meaning "until the end of
the run".  ``machines=None`` means the window applies to every machine.

The CLI accepts a compact spec (see :meth:`FaultPlan.parse`)::

    drop=0.05                     # 5% drop probability, whole run, all machines
    drop=0.2@10:200               # only iterations 10..199
    delay=0.1x0.05@1:50           # 10% of messages +50 ms, iterations 1..49
    slow=w2x3.0@20:40             # machine 2 runs 3x slower in that window
    crash=w1@25                   # machine 1 crashes at its 25th step
    ps-out=0@30:40                # PS shard 0 unavailable in the window
    seed=7,retries=6,restart-delay=2.5
    retries=4x0.004               # 4 attempts, 4 ms RPC timeout (serving-scale)

:meth:`FaultPlan.to_spec` is the exact inverse: it renders a plan back
into the grammar such that ``FaultPlan.parse(plan.to_spec()) == plan``
for every grammar-expressible plan (per-machine window restrictions and
exotic retry/recovery parameters have no spelling and raise).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _check_window(start: int, stop: int | None) -> None:
    if start < 1:
        raise ValueError(f"window start must be >= 1 (1-based steps), got {start}")
    if stop is not None and stop <= start:
        raise ValueError(f"window [{start}, {stop}) is empty")


def _in_window(start: int, stop: int | None, iteration: int) -> bool:
    return iteration >= start and (stop is None or iteration < stop)


@dataclass(frozen=True)
class DropWindow:
    """Messages sent by ``machines`` drop with ``probability`` in the window."""

    probability: float
    start: int = 1
    stop: int | None = None
    machines: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {self.probability}")
        _check_window(self.start, self.stop)

    def applies(self, machine: int, iteration: int) -> bool:
        return (self.machines is None or machine in self.machines) and _in_window(
            self.start, self.stop, iteration
        )


@dataclass(frozen=True)
class DelayWindow:
    """Messages suffer an extra ``delay`` seconds with ``probability``."""

    probability: float
    delay: float
    start: int = 1
    stop: int | None = None
    machines: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"delay probability must be in [0, 1], got {self.probability}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        _check_window(self.start, self.stop)

    def applies(self, machine: int, iteration: int) -> bool:
        return (self.machines is None or machine in self.machines) and _in_window(
            self.start, self.stop, iteration
        )


@dataclass(frozen=True)
class StragglerWindow:
    """One machine computes ``slowdown``x slower inside the window."""

    machine: int
    slowdown: float
    start: int = 1
    stop: int | None = None

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1.0, got {self.slowdown}")
        if self.machine < 0:
            raise ValueError(f"machine must be >= 0, got {self.machine}")
        _check_window(self.start, self.stop)

    def applies(self, machine: int, iteration: int) -> bool:
        return machine == self.machine and _in_window(self.start, self.stop, iteration)


@dataclass(frozen=True)
class CrashEvent:
    """Machine ``machine`` crashes at the start of its ``iteration``-th step.

    The crashed worker loses its hot-embedding cache, its PS shard rewinds
    to the last checkpoint, and the full recovery cost is charged to its
    simulated clock (see :mod:`repro.faults.recovery`).
    """

    machine: int
    iteration: int

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ValueError(f"machine must be >= 0, got {self.machine}")
        if self.iteration < 1:
            raise ValueError(f"crash iteration must be >= 1, got {self.iteration}")


@dataclass(frozen=True)
class OutageWindow:
    """PS shard ``shard`` is unreachable during the window.

    Operations touching the shard fail deterministically on every attempt
    inside the window; cached workers degrade gracefully (serve stale hot
    rows past the staleness bound ``P`` and record the overrun).
    """

    shard: int
    start: int
    stop: int | None

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        _check_window(self.start, self.stop)

    def applies(self, shard: int, iteration: int) -> bool:
        return shard == self.shard and _in_window(self.start, self.stop, iteration)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / exponential-backoff-with-jitter retry behaviour.

    Every failed attempt charges ``timeout`` seconds to the caller's clock,
    then waits ``min(backoff_base * backoff_factor**k, max_backoff)``
    seconds (jittered by up to ``backoff_jitter`` of itself, drawn from the
    machine's deterministic fault stream) before attempt ``k+1``.  After
    ``max_attempts`` total attempts the operation degrades (see
    :class:`~repro.faults.rpc.PSChannel`).
    """

    timeout: float = 0.05
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    max_backoff: float = 1.0
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.timeout < 0:
            raise ValueError(f"timeout must be non-negative, got {self.timeout}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}")
        if self.max_backoff < 0:
            raise ValueError(f"max_backoff must be non-negative, got {self.max_backoff}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff(self, attempt: int) -> float:
        """Base backoff (pre-jitter) after failed attempt ``attempt`` (1-based)."""
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1), self.max_backoff
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos schedule for one training run.

    ``seed`` feeds the per-machine fault streams, so the same plan + seed
    reproduces the exact same faults regardless of any other randomness in
    the run.  ``restart_delay`` and ``recovery_bandwidth`` parameterise the
    crash-restart cost model: a recovering machine pays
    ``restart_delay + restored_bytes / recovery_bandwidth`` seconds before
    rebuilding its hot table.
    """

    seed: int = 0
    drops: tuple[DropWindow, ...] = ()
    delays: tuple[DelayWindow, ...] = ()
    stragglers: tuple[StragglerWindow, ...] = ()
    crashes: tuple[CrashEvent, ...] = ()
    outages: tuple[OutageWindow, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    restart_delay: float = 1.0
    recovery_bandwidth: float = 200e6  # bytes/s checkpoint reload (local disk)

    def __post_init__(self) -> None:
        if self.restart_delay < 0:
            raise ValueError(f"restart_delay must be non-negative, got {self.restart_delay}")
        if self.recovery_bandwidth <= 0:
            raise ValueError(
                f"recovery_bandwidth must be positive, got {self.recovery_bandwidth}"
            )
        seen: set[tuple[int, int]] = set()
        for event in self.crashes:
            key = (event.machine, event.iteration)
            if key in seen:
                raise ValueError(f"duplicate crash event for machine {event.machine} @ {event.iteration}")
            seen.add(key)

    # --------------------------------------------------------------- inspect

    @property
    def is_zero(self) -> bool:
        """True when installing this plan cannot change a run's behaviour."""
        return (
            all(w.probability == 0.0 for w in self.drops)
            and all(w.probability == 0.0 or w.delay == 0.0 for w in self.delays)
            and not self.stragglers
            and not self.crashes
            and not self.outages
        )

    def check_cluster(self, size: int) -> None:
        """Raise :class:`ValueError` naming the first clause that targets a
        machine or PS shard outside a cluster of ``size``: it could never
        fire."""
        targets = (
            [("machine", w.machine, f"slow=w{w.machine}x{w.slowdown!r}") for w in self.stragglers]
            + [("machine", e.machine, f"crash=w{e.machine}@{e.iteration}") for e in self.crashes]
            + [("shard", w.shard, f"ps-out={w.shard}@{w.start}:{w.stop or ''}")
               for w in self.outages]
            + [("machine", m, f"drop={w.probability!r} on w{m}")
               for w in self.drops for m in w.machines or ()]
            + [("machine", m, f"delay={w.probability!r}x{w.delay!r} on w{m}")
               for w in self.delays for m in w.machines or ()]
        )
        for noun, index, clause in targets:
            if index >= size:
                raise ValueError(
                    f"bad fault clause {clause!r}: {noun} {index} is not in a "
                    f"cluster of {size}"
                )

    def with_overrides(self, **kwargs) -> "FaultPlan":
        """A copy with some fields replaced (re-validated)."""
        return replace(self, **kwargs)

    def to_spec(self) -> str:
        """Render the plan back into the ``--faults`` grammar.

        The exact inverse of :meth:`parse`:
        ``FaultPlan.parse(plan.to_spec()) == plan`` for every plan the
        grammar can express.  Plans that tune what the grammar cannot
        spell — per-machine drop/delay window restrictions, retry fields
        beyond ``max_attempts``/``timeout``, a non-default
        ``recovery_bandwidth`` — raise :class:`ValueError` rather than
        silently dropping the inexpressible part.
        """

        def fmt(value: float) -> str:
            return repr(float(value))

        def win(start: int, stop: int | None) -> str:
            if start == 1 and stop is None:
                return ""
            return f"@{start}:{'' if stop is None else stop}"

        clauses: list[str] = []
        if self.seed:
            clauses.append(f"seed={self.seed}")
        default_retry = RetryPolicy()
        if self.retry != default_retry:
            expressible = replace(
                self.retry,
                max_attempts=default_retry.max_attempts,
                timeout=default_retry.timeout,
            )
            if expressible != default_retry:
                raise ValueError(
                    "retry policy tunes fields the --faults grammar cannot "
                    "express (only max_attempts and timeout have spellings)"
                )
            clause = f"retries={self.retry.max_attempts}"
            if self.retry.timeout != default_retry.timeout:
                clause += f"x{fmt(self.retry.timeout)}"
            clauses.append(clause)
        if self.restart_delay != 1.0:
            clauses.append(f"restart-delay={fmt(self.restart_delay)}")
        if self.recovery_bandwidth != 200e6:
            raise ValueError("recovery_bandwidth has no --faults spelling")
        for w in self.drops:
            if w.machines is not None:
                raise ValueError(
                    "per-machine drop windows have no --faults spelling"
                )
            clauses.append(f"drop={fmt(w.probability)}{win(w.start, w.stop)}")
        for w in self.delays:
            if w.machines is not None:
                raise ValueError(
                    "per-machine delay windows have no --faults spelling"
                )
            clauses.append(
                f"delay={fmt(w.probability)}x{fmt(w.delay)}{win(w.start, w.stop)}"
            )
        for w in self.stragglers:
            clauses.append(
                f"slow=w{w.machine}x{fmt(w.slowdown)}{win(w.start, w.stop)}"
            )
        for event in self.crashes:
            clauses.append(f"crash=w{event.machine}@{event.iteration}")
        for w in self.outages:
            stop = "" if w.stop is None else w.stop
            clauses.append(f"ps-out={w.shard}@{w.start}:{stop}")
        return ",".join(clauses)

    # ----------------------------------------------------------- constructors

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A plan scheduling no faults at all (the no-op invariant plan)."""
        return cls(seed=seed)

    @classmethod
    def uniform_drop(
        cls, probability: float, seed: int = 0, **kwargs
    ) -> "FaultPlan":
        """Drop every message with ``probability`` for the whole run."""
        drops = (DropWindow(probability),) if probability > 0 else ()
        return cls(seed=seed, drops=drops, **kwargs)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the CLI's compact ``--faults`` spec.

        Comma-separated clauses; see the module docstring for the grammar.
        ``FaultPlan.parse("")`` is :meth:`FaultPlan.none`.
        """
        drops: list[DropWindow] = []
        delays: list[DelayWindow] = []
        stragglers: list[StragglerWindow] = []
        crashes: list[CrashEvent] = []
        outages: list[OutageWindow] = []
        seed = 0
        restart_delay = 1.0
        retry = RetryPolicy()

        def window(text: str | None) -> tuple[int, int | None]:
            if text is None:
                return 1, None
            start_s, _, stop_s = text.partition(":")
            start = int(start_s) if start_s else 1
            stop = int(stop_s) if stop_s else None
            return start, stop

        for clause in filter(None, (c.strip() for c in spec.split(","))):
            key, sep, value = clause.partition("=")
            if not sep:
                raise ValueError(f"bad fault clause {clause!r} (expected key=value)")
            body, _, win = value.partition("@")
            win_text = win if win else None
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "retries":
                    attempts_s, sep_x, timeout_s = value.partition("x")
                    retry = replace(retry, max_attempts=int(attempts_s))
                    if sep_x:
                        retry = replace(retry, timeout=float(timeout_s))
                elif key == "restart-delay":
                    restart_delay = float(value)
                elif key == "drop":
                    start, stop = window(win_text)
                    drops.append(DropWindow(float(body), start, stop))
                elif key == "delay":
                    prob_s, _, secs_s = body.partition("x")
                    start, stop = window(win_text)
                    delays.append(
                        DelayWindow(float(prob_s), float(secs_s), start, stop)
                    )
                elif key == "slow":
                    mach_s, _, factor_s = body.lstrip("w").partition("x")
                    start, stop = window(win_text)
                    stragglers.append(
                        StragglerWindow(int(mach_s), float(factor_s), start, stop)
                    )
                elif key == "crash":
                    if win_text is None:
                        raise ValueError("crash needs @<iteration>")
                    crashes.append(CrashEvent(int(body.lstrip("w")), int(win_text)))
                elif key == "ps-out":
                    if win_text is None:
                        raise ValueError("ps-out needs @<start>:<stop>")
                    start, stop = window(win_text)
                    outages.append(OutageWindow(int(body), start, stop))
                else:
                    raise ValueError(f"unknown clause key {key!r}")
            except ValueError as exc:
                # Every failure — bad number, bad window, out-of-range
                # value, unknown key — names the offending clause.
                raise ValueError(f"bad fault clause {clause!r}: {exc}") from exc
        return cls(
            seed=seed,
            drops=tuple(drops),
            delays=tuple(delays),
            stragglers=tuple(stragglers),
            crashes=tuple(crashes),
            outages=tuple(outages),
            retry=retry,
            restart_delay=restart_delay,
        )
