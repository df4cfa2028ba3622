"""Chain builders: workload deviation x protocol kernel -> Markov chain.

For each deviation of Section 4.2 the acting nodes form symmetric groups
with per-member trial rates:

* **read disturbance** — the activity center (reads ``1 - p - a*sigma``,
  writes ``p``) and ``a`` disturbers (read ``sigma`` each);
* **write disturbance** — the activity center (reads ``1 - p - a*xi``,
  writes ``p``) and ``a`` disturbers (write ``xi`` each);
* **multiple activity centers** — ``beta`` centers, each reading
  ``(1 - p)/beta`` and writing ``p/beta``.

The chain state is the kernel's reduced global state; each state's outgoing
events enumerate, for every group and member state with non-zero count,
"one such member reads/writes", with probability ``count * rate``.  The
event probabilities sum to one by construction, mirroring the paper's
mutually exclusive and exhaustive sample space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Tuple

from .kernels import Env, ProtocolKernel, get_kernel
from .markov import solve_chain
from .parameters import Deviation, WorkloadParams

__all__ = ["GroupSpec", "deviation_groups", "build_chain", "markov_acc"]


@dataclass(frozen=True)
class GroupSpec:
    """One symmetric actor group."""

    name: str
    size: int
    read_rate: float
    write_rate: float


def deviation_groups(params: WorkloadParams, deviation: Deviation
                     ) -> Tuple[GroupSpec, ...]:
    """The actor groups and trial rates of a deviation (Section 4.2)."""
    if deviation is Deviation.READ:
        r = 1.0 - params.p - params.a * params.sigma
        groups = [GroupSpec("ac", 1, max(r, 0.0), params.p)]
        if params.a:
            groups.append(GroupSpec("dist", params.a, params.sigma, 0.0))
        return tuple(groups)
    if deviation is Deviation.WRITE:
        r = 1.0 - params.p - params.a * params.xi
        groups = [GroupSpec("ac", 1, max(r, 0.0), params.p)]
        if params.a:
            groups.append(GroupSpec("dist", params.a, 0.0, params.xi))
        return tuple(groups)
    return (
        GroupSpec(
            "centers",
            params.beta,
            params.per_center_read_prob,
            params.per_center_write_prob,
        ),
    )


def build_chain(
    kernel: ProtocolKernel,
    params: WorkloadParams,
    deviation: Deviation,
) -> Tuple[Hashable, Callable[[Hashable], List[Tuple[float, float, Hashable]]]]:
    """Build ``(initial state, transition generator)`` for a chain.

    The generator yields ``(probability, cost, next_state)`` triples whose
    probabilities sum to one per state.
    """
    groups = deviation_groups(params, deviation)
    env = Env(S=params.S, P=params.P, N=params.N)
    initial = kernel.initial_state(tuple(g.size for g in groups))
    member_states = kernel.member_states

    def transitions(state: Hashable) -> List[Tuple[float, float, Hashable]]:
        out: List[Tuple[float, float, Hashable]] = []
        counts_by_group = state[0]
        for g, spec in enumerate(groups):
            counts = counts_by_group[g]
            for si, s in enumerate(member_states):
                c = counts[si]
                if not c:
                    continue
                for kind, rate in (("read", spec.read_rate),
                                   ("write", spec.write_rate)):
                    if rate <= 0.0:
                        continue
                    cost, nxt = kernel.op(state, g, s, kind, env)
                    out.append((c * rate, cost, nxt))
        return out

    return initial, transitions


def markov_acc(protocol: str, params: WorkloadParams,
               deviation: Deviation) -> float:
    """Exact steady-state ``acc`` from the reduced Markov chain.

    This is the authoritative analytic evaluation for every protocol and
    deviation; the closed forms of :mod:`repro.core.closed_forms` are
    verified against it.
    """
    kernel = get_kernel(protocol)
    initial, transitions = build_chain(kernel, params, deviation)
    return solve_chain(initial, transitions)
