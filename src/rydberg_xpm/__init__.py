"""Rydberg-EIT cross-phase modulation toolkit.

Model chain: complex susceptibility -> propagation (optical depth, phase)
-> blockade-modified phase of a stored excitation -> output polarization
state -> Stokes tomography and photon-counting statistics; plus spectrum
fitting and a reproducible CLI.
"""

__version__ = "0.1.0"
