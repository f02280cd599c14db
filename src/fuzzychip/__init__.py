"""Bit-exact software models of a fixed-point fuzzy inference core, a
hardware-style genetic algorithm engine, and a fuzzy path-tracking simulator.

Import the submodules (`from fuzzychip import flc, ga, problems, tracksim`);
`import fuzzychip` alone loads none of them."""

__version__ = "0.1.0"
