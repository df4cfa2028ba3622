"""Activity-center placement: the sequencer's own traces (tr5/tr6).

The paper's trace set includes the sequencer-initiated traces — tr5 (free
sequencer read) and tr6 (sequencer write, cost ``N``) for Write-Through —
but its workload deviations place every actor at a client.  This module
asks the natural follow-up design question: *what if the activity center
is the home/sequencer node itself?*  (In a real DSM the placement of the
hot writer relative to an object's home is a first-order tuning decision.)

:func:`home_center_acc` evaluates the read/write-disturbance deviations
with the activity center executing *home-node* operations (the
sequencer's own read and write paths, run on the simulator), disturbers
remaining clients; :func:`placement_advantage` reports the saving over
the standard client placement.

For Write-Through this recovers the tr5/tr6 calculus exactly: the home
center's writes cost ``N`` instead of ``P + N`` and its reads are always
free, so the placement saves ``p (P + (1-p-a sigma)(S+2)/(1-a sigma))``
under read disturbance.
"""

from __future__ import annotations

from typing import Tuple

from .acc import analytical_acc
from .chains import GroupSpec, chain_from, extract_transitions
from .markov import solve_chain
from .parameters import Deviation, WorkloadParams

__all__ = ["home_center_acc", "placement_advantage"]


def home_center_acc(
    protocol: str,
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
) -> float:
    """Steady-state ``acc`` with the activity center at the home node.

    The home node issues the reads (rate ``1 - p - a*disturb``) and writes
    (rate ``p``) through the protocol's sequencer-side paths; the ``a``
    disturbing clients behave as in the standard deviation.  Only the
    disturbance deviations are supported (with multiple activity centers
    there is no single center to relocate).
    """
    if deviation not in (Deviation.READ, Deviation.WRITE):
        raise ValueError(
            "placement analysis applies to the disturbance deviations"
        )
    disturb = params.sigma if deviation is Deviation.READ else params.xi
    r = 1.0 - params.p - params.a * disturb
    if r < -1e-12:
        raise ValueError("infeasible workload")
    groups = [GroupSpec("home", 1, max(r, 0.0), params.p)]
    if params.a:
        if deviation is Deviation.READ:
            groups.append(GroupSpec("dist", params.a, disturb, 0.0))
        else:
            groups.append(GroupSpec("dist", params.a, 0.0, disturb))
    extraction = extract_transitions(
        protocol, params.N, tuple((g.size, g.kinds) for g in groups),
        home=True)
    return solve_chain(*chain_from(extraction, tuple(groups), params.S,
                                   params.P))


def placement_advantage(
    protocol: str,
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
) -> Tuple[float, float, float]:
    """``(client_acc, home_acc, saving)`` for relocating the center home.

    ``saving = client_acc - home_acc``; positive means the home placement
    is cheaper (it always is, weakly: the home's own traffic disappears
    while the disturbers' costs are unchanged or better).
    """
    client = analytical_acc(protocol, params, deviation)
    home = home_center_acc(protocol, params, deviation)
    return client, home, client - home
