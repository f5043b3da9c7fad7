"""Energy-function models of AC machines.

One scalar energy function per machine is the single source of truth:
currents, speed and torque are its partial derivatives, and the simulator
integrates the resulting state equations.  Subpackages:

* :mod:`enermach.frames` -- reference frame transformations
* :mod:`enermach.energy` -- energy model contract, torque, and the polynomial
  magnet model with its linear magnet / reluctance front ends
* :mod:`enermach.saturation` -- quartic saturation front end
* :mod:`enermach.harmonics` -- rotor-angle harmonics, torque ripple, neutral voltage
* :mod:`enermach.induction` -- induction machine energy model
* :mod:`enermach.dynamics` -- one fixed-step simulator for every model, energy bookkeeping
* :mod:`enermach.identify` -- least-squares fitting of saturation coefficients
* :mod:`enermach.validate` -- model self-consistency checks
* :mod:`enermach.config` -- YAML config schema for the command line tools
* :mod:`enermach.cli` -- command line front end
"""

__version__ = "0.1.0"
