"""gridpilot: unbalanced-feeder Volt-VAr sandbox.

Three-phase radial power flow, a feeder-head-only neural state estimator,
and a DDPG agent dispatching smart-inverter reactive power to keep node
voltages inside the ANSI band with minimal curtailment exposure.
"""

__version__ = "0.1.0"
