"""Analytic cost model and program simulator (paper §5).

The simulator predicts the end-to-end time of a lowered reduction program on
a :class:`~repro.topology.topology.MachineTopology`:

* :mod:`repro.cost.nccl` — alpha-beta cost of one collective over one group
  under NCCL's ring or tree algorithm.
* :mod:`repro.cost.contention` — how many concurrent groups share each link
  within a step (NICs for cross-node traffic, the NVLink ring for V100
  intra-node traffic).
* :mod:`repro.cost.model` — the tunable constants (launch overheads, algorithm
  choice) bundled as a :class:`CostModel`.
* :mod:`repro.cost.profile` — the payload-independent part of a simulation
  (semantics + contention) compiled once per program into a
  :class:`SimulationProfile`, priceable for any payload in closed form.
* :mod:`repro.cost.batch` — :func:`price_programs`: many programs'
  profiles priced at one payload, each distinct step once, with the step
  scan :func:`price_profile` runs.
* :mod:`repro.cost.simulator` — drives the Hoare semantics step by step to
  track per-device payload sizes and sums the per-step times; answers
  repeat simulations by pricing cached profiles (one program per call with
  :func:`price_profile`, many at once with :func:`price_programs`).
"""

from repro.cost.nccl import NCCLAlgorithm, collective_time
from repro.cost.model import CostModel
from repro.cost.contention import StepContention, analyze_step_contention
from repro.cost.profile import SimulationProfile, compile_profile, price_profile
from repro.cost.batch import BatchPricer, price_programs
from repro.cost.simulator import ProgramSimulator, SimulationResult, simulate_program

__all__ = [
    "NCCLAlgorithm",
    "collective_time",
    "CostModel",
    "StepContention",
    "analyze_step_contention",
    "SimulationProfile",
    "compile_profile",
    "price_profile",
    "BatchPricer",
    "price_programs",
    "ProgramSimulator",
    "SimulationResult",
    "simulate_program",
]
