"""repro.chaos — deterministic chaos fuzzing with schedule shrinking.

The robustness subsystems (fault injection, reliable delivery, crash
recovery, partitions, the failure detector) each carry their own tests,
but their *interactions* are where consistency bugs hide.  This package
searches that interaction space mechanically:

* :mod:`repro.chaos.generate` — one ``(base_seed, fuzz_seed, protocol)``
  triple deterministically maps to one random fault + partition schedule;
* :mod:`repro.chaos.runner` — runs every schedule through the sweep
  engine with the consistency monitor on and classifies the rows;
* :mod:`repro.chaos.shrink` — reduces each violating schedule to a
  minimal reproducing cell, serialized as a self-contained repro JSON.

Everything is a pure function of the seeds: the same campaign produces
byte-identical findings on any machine, any worker count, any day —
which is what makes a CI fuzz job's artifact trustworthy.

Quickstart::

    from repro.chaos import ChaosOptions, run_chaos

    report = run_chaos(ChaosOptions(seeds=25))
    assert report.ok, report.summary()
"""

import sys
from types import ModuleType

from ..util import lazy_exports

# (submodule, names) pairs in the order of ``__all__``; each name loads
# only its own submodule, so ``repro simulate`` (which reads
# ``ChaosOptions``) loads neither the runner nor the shrinker
__all__, _export, __dir__ = lazy_exports(__name__, (
    ("generate", ("ALL_CHAOS_PROTOCOLS", "ChaosOptions", "chaos_cells",
                  "generate_cell")),
    ("runner", ("VIOLATION_KINDS", "ChaosFinding", "ChaosReport",
                "load_repro", "replay_repro", "run_chaos", "violates",
                "write_repros")),
    ("shrink", ("ShrinkResult", "fault_window_count", "shrink")),
))


class _Package(ModuleType):
    """This package, whose name ``shrink`` is the function.

    The import system binds each submodule it loads on its package, so
    loading :mod:`repro.chaos.shrink` (from here, from the runner or
    directly) would put the module over the function of the same name;
    the package binds the function instead.
    """

    def __setattr__(self, name, value):
        if name == "shrink" and isinstance(value, ModuleType):
            value = value.shrink
        super().__setattr__(name, value)


def __getattr__(name):
    _export(name)
    return vars(sys.modules[__name__])[name]


sys.modules[__name__].__class__ = _Package
