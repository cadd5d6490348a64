"""Multi-tenant admission control and SLO-protecting load shedding.

The serving frontend is sized for the cache-hit path; when offered load
exceeds what the miss path can absorb, an unprotected server queues
without bound and every tenant's p99 collapses together.  This module
puts two deterministic gates in front of the batcher:

**Admission control** (:class:`AdmissionController`) — per-tenant token
buckets refilled by *simulated* time.  A tenant that exceeds its
provisioned rate has its excess queries ``rejected`` up front, before
they consume queue space, so one tenant's burst cannot starve another's
SLO.  Buckets are pure functions of the arrival timestamps, so admission
decisions are bit-reproducible.

**Load shedding** (:class:`LoadShedder`) — a queue-depth/deadline
estimator projects each admitted query's completion time from the
server's backlog and an EWMA of observed per-query service time.  The
response is a *ladder*, never a crash:

1. **full answer** while the projected latency sits under the SLO;
2. **degraded** (truncated top-k: prediction queries score only a prefix
   of their candidate set) once the projection enters the pressure band;
3. **shed** (drop with a first-class ``shed`` outcome) once the
   projection busts the SLO.

Priorities stretch the ladder: a priority-``p`` tenant's shed threshold
is ``(1 + priority_slack * p)`` times the base one, so the lowest
priority sheds first and the highest sheds last.  Each priority level
carries hysteresis — shedding engages at ``enter x SLO`` but only
disengages below ``exit x SLO`` — so the shed boundary cannot flap
query-by-query around the threshold.

Everything here is driven by the frontend's :class:`~repro.utils.simclock.SimClock`
readings; nothing consults wall time or draws randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

#: Shed-ladder decisions returned by :meth:`LoadShedder.assess`.
FULL, DEGRADED, SHED_DECISION = "full", "degraded", "shed"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's admission contract.

    Parameters
    ----------
    name:
        Tenant identifier carried on :class:`~repro.serving.queries.Query`.
        ``"*"`` is the wildcard spec applied to tenants with no explicit
        entry (including anonymous ``""`` traffic).
    rate:
        Sustained admission rate in queries per simulated second.
    burst:
        Token-bucket depth: how many queries may arrive back-to-back
        before the sustained rate gates them.
    priority:
        Shed precedence, ``0`` lowest.  Higher-priority tenants are shed
        later under overload (see :class:`LoadShedder`).
    """

    name: str
    rate: float
    burst: int = 32
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        check_positive("rate", self.rate)
        check_positive("burst", self.burst)
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")


class TokenBucket:
    """Deterministic token bucket refilled by simulated elapsed time."""

    def __init__(self, rate: float, burst: int) -> None:
        check_positive("rate", rate)
        check_positive("burst", burst)
        self.rate = float(rate)
        self.burst = int(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def try_take(self, now: float) -> bool:
        """Consume one token at simulated time ``now`` if one is available.

        Arrivals are processed in timestamp order, so ``now`` is
        monotone; a stale ``now`` simply refills nothing.
        """
        if now > self._last:
            self.tokens = min(
                float(self.burst), self.tokens + (now - self._last) * self.rate
            )
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant token buckets plus the priority map the shedder uses.

    Parameters
    ----------
    tenants:
        The tenant contracts.  A spec named ``"*"`` becomes the wildcard
        bucket for tenants (and anonymous traffic) without their own
        entry; with no wildcard, unknown tenants are admitted
        unconditionally at priority 0.
    """

    def __init__(self, tenants: "list[TenantSpec] | tuple[TenantSpec, ...]") -> None:
        self.specs: dict[str, TenantSpec] = {}
        for spec in tenants:
            if spec.name in self.specs:
                raise ValueError(f"duplicate tenant spec {spec.name!r}")
            self.specs[spec.name] = spec
        self._buckets: dict[str, TokenBucket] = {
            name: TokenBucket(spec.rate, spec.burst)
            for name, spec in self.specs.items()
            if name != "*"
        }
        self._wildcard = self.specs.get("*")
        #: Per-tenant decision counters (admitted / rejected).
        self.admitted: dict[str, int] = {}
        self.rejected: dict[str, int] = {}

    # ------------------------------------------------------------- decisions

    def _bucket(self, tenant: str) -> TokenBucket | None:
        bucket = self._buckets.get(tenant)
        if bucket is None and self._wildcard is not None:
            bucket = TokenBucket(self._wildcard.rate, self._wildcard.burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, now: float) -> bool:
        """Token-bucket decision for one arrival at simulated ``now``."""
        bucket = self._bucket(tenant)
        ok = True if bucket is None else bucket.try_take(now)
        book = self.admitted if ok else self.rejected
        book[tenant] = book.get(tenant, 0) + 1
        return ok

    def priority(self, tenant: str) -> int:
        spec = self.specs.get(tenant, self._wildcard)
        return spec.priority if spec is not None else 0

    @property
    def max_priority(self) -> int:
        return max((s.priority for s in self.specs.values()), default=0)

    # -------------------------------------------------------------- grammar

    @classmethod
    def parse(cls, spec: str) -> "AdmissionController":
        """Build a controller from the CLI's compact ``--admission`` spec.

        Comma-separated clauses ``name=rate[/burst][/p<priority>]``::

            gold=2000/256/p2,free=500/64,*=100

        ``rate`` is queries per simulated second, ``burst`` the bucket
        depth (default 32), ``p<k>`` the shed priority (default 0).
        ``*`` declares the wildcard bucket for unlisted tenants.
        """
        tenants: list[TenantSpec] = []
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            name, sep, body = clause.partition("=")
            if not sep or not name:
                raise ValueError(
                    f"bad admission clause {clause!r} (expected name=rate[/burst][/p<prio>])"
                )
            parts = body.split("/")
            try:
                rate = float(parts[0])
                burst = 32
                priority = 0
                for extra in parts[1:]:
                    if extra.startswith("p"):
                        priority = int(extra[1:])
                    else:
                        burst = int(extra)
                tenants.append(
                    TenantSpec(name=name, rate=rate, burst=burst, priority=priority)
                )
            except ValueError as exc:
                raise ValueError(
                    f"bad admission clause {clause!r}: {exc}"
                ) from exc
        if not tenants:
            raise ValueError(f"admission spec {spec!r} declares no tenants")
        return cls(tenants)

    def to_spec(self) -> str:
        """The canonical spec string; ``parse(to_spec())`` round-trips."""
        clauses = []
        for spec in self.specs.values():
            clause = f"{spec.name}={spec.rate!r}"
            if spec.burst != 32:
                clause += f"/{spec.burst}"
            if spec.priority:
                clause += f"/p{spec.priority}"
            clauses.append(clause)
        return ",".join(clauses)


@dataclass
class ShedderStats:
    """Cumulative ladder decisions (all priorities)."""

    full: int = 0
    degraded: int = 0
    shed: int = 0
    #: Hysteresis transitions into/out of the shedding state.
    engaged: int = 0
    disengaged: int = 0


class LoadShedder:
    """Deadline-aware laddered load shedding with hysteresis.

    Parameters
    ----------
    slo:
        The latency objective in simulated seconds; projections are
        judged as multiples of it ("pressure").
    degrade_at:
        Pressure at which admitted prediction queries degrade to a
        truncated top-k (fraction of SLO, pre-priority scaling).
    enter / exit:
        Hysteresis band for the shedding state, as pressure multiples:
        shedding engages at ``enter`` and disengages at ``exit``
        (``exit < enter``).  Each priority level keeps its own state.
    priority_slack:
        How much each priority level stretches the thresholds: priority
        ``p`` sheds at ``enter * (1 + priority_slack * p)``.
    degrade_keep:
        Fraction of a prediction query's candidate set scored while
        degraded (at least one candidate survives).
    ewma:
        Smoothing factor of the per-query service-time estimate.
    """

    def __init__(
        self,
        slo: float,
        degrade_at: float = 0.6,
        enter: float = 1.0,
        exit: float = 0.7,
        priority_slack: float = 1.0,
        degrade_keep: float = 0.5,
        ewma: float = 0.25,
    ) -> None:
        check_positive("slo", slo)
        check_positive("enter", enter)
        if not 0.0 < exit < enter:
            raise ValueError(
                f"exit must satisfy 0 < exit < enter, got exit={exit} enter={enter}"
            )
        if not 0.0 < degrade_at <= enter:
            raise ValueError(
                f"degrade_at must be in (0, enter], got {degrade_at}"
            )
        if priority_slack < 0:
            raise ValueError(f"priority_slack must be >= 0, got {priority_slack}")
        if not 0.0 < degrade_keep <= 1.0:
            raise ValueError(f"degrade_keep must be in (0, 1], got {degrade_keep}")
        if not 0.0 < ewma <= 1.0:
            raise ValueError(f"ewma must be in (0, 1], got {ewma}")
        self.slo = float(slo)
        self.degrade_at = float(degrade_at)
        self.enter = float(enter)
        self.exit = float(exit)
        self.priority_slack = float(priority_slack)
        self.degrade_keep = float(degrade_keep)
        self.ewma = float(ewma)
        #: EWMA per-query service-time estimate (seconds); optimistic 0
        #: until the first batch is observed, so a cold server never
        #: sheds on its first arrivals.
        self.service_estimate = 0.0
        self._active: dict[int, bool] = {}
        self.stats = ShedderStats()

    # ------------------------------------------------------------ estimation

    def observe_batch(self, batch_size: int, service_seconds: float) -> None:
        """Fold one dispatched batch's measured service time into the
        per-query estimate (deterministic EWMA)."""
        if batch_size <= 0:
            return
        sample = service_seconds / batch_size
        if self.service_estimate == 0.0:
            self.service_estimate = sample
        else:
            self.service_estimate += self.ewma * (sample - self.service_estimate)

    def projected_latency(
        self, arrival: float, server_clock: float, queue_depth: int, max_wait: float
    ) -> float:
        """Deterministic completion projection for an arrival.

        ``server busy backlog`` (how far the clock already ran ahead of
        this arrival) + service for everything queued ahead + own
        service + the worst-case batching delay.
        """
        backlog = max(server_clock - arrival, 0.0)
        return (
            backlog
            + (queue_depth + 1) * self.service_estimate
            + max_wait
        )

    # -------------------------------------------------------------- decision

    def thresholds(self, priority: int) -> tuple[float, float]:
        """(enter, exit) pressure thresholds for one priority level."""
        stretch = 1.0 + self.priority_slack * max(priority, 0)
        return self.enter * stretch, self.exit * stretch

    def assess(self, priority: int, projected_latency: float) -> str:
        """Ladder decision for one admitted arrival: full/degraded/shed."""
        pressure = projected_latency / self.slo
        enter, exit = self.thresholds(priority)
        active = self._active.get(priority, False)
        if active and pressure <= exit:
            active = False
            self.stats.disengaged += 1
        elif not active and pressure >= enter:
            active = True
            self.stats.engaged += 1
        self._active[priority] = active
        if active:
            self.stats.shed += 1
            return SHED_DECISION
        if pressure >= self.degrade_at:
            self.stats.degraded += 1
            return DEGRADED
        self.stats.full += 1
        return FULL

    def is_shedding(self, priority: int) -> bool:
        return self._active.get(priority, False)

    def truncated_candidates(self, candidates: np.ndarray) -> np.ndarray:
        """The degraded ladder rung: the candidate prefix to score (a view)."""
        if not len(candidates):
            return candidates
        keep = max(1, int(len(candidates) * self.degrade_keep))
        return candidates[:keep]


def assign_tenants(queries, names: "list[str] | tuple[str, ...]"):
    """Tag a query stream with tenants round-robin by query id.

    Deterministic and arrival-independent: query ``qid`` belongs to
    ``names[qid % len(names)]``.  Returns a new list (queries are frozen).
    """
    from dataclasses import replace

    names = list(names)
    if not names:
        raise ValueError("need at least one tenant name")
    return [replace(q, tenant=names[q.qid % len(names)]) for q in queries]
