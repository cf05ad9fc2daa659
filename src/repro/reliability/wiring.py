"""Client hardening: the one place the reliability stack is composed.

The run's :class:`~repro.config.RunSettings` carry the retry policy
(``--retries`` / ``REPRO_RETRY``) and the fault plan (``--faults`` /
``REPRO_FAULTS``).  The study factories funnel every LLM client through
:func:`harden_client`, which reads them and composes the wrappers in the
one order that preserves both parity and cache semantics::

    CachedClient( RetryingClient( FaultInjector( SimulatedLLM ) ) )

— faults innermost (they model the unreliable backend), retries around
them (so retries see injected faults), and the cache outermost (so hits
skip the whole stack and only validated responses are ever stored).
"""

from __future__ import annotations

from ..config import current_settings
from ..llm.client import LLMClient
from .clock import Clock
from .policy import RetryPolicy
from .retry import RetryingClient, validate_yes_no

__all__ = ["harden_client"]


def harden_client(client: LLMClient, clock: Clock | None = None) -> LLMClient:
    """Compose the reliability stack around ``client``.

    Identity when the run's settings name neither a retry policy nor a
    fault plan: default study behaviour is unchanged.  With a fault plan the
    client is wrapped in a :class:`~repro.reliability.faults.FaultInjector`;
    when a policy *or* plan is active the result is wrapped in a
    :class:`~repro.reliability.retry.RetryingClient` carrying the yes/no
    response validator (a fault plan without an explicit policy gets the
    default policy, whose ``max_attempts`` out-budgets the injector's
    ``max_consecutive`` cap).
    """
    settings = current_settings()
    policy, plan = settings.retry, settings.faults
    if plan is not None and plan.any_faults:
        from .faults import FaultInjector

        client = FaultInjector(client, plan, clock=clock)
    else:
        plan = None
    if policy is None and plan is None:
        return client
    return RetryingClient(
        client,
        policy or RetryPolicy(),
        clock=clock,
        validate=validate_yes_no,
    )
