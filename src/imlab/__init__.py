"""Spectral laboratory for invariant graphs of parabolic evolution problems.

The package builds attracting invariant graphs over a finite block of slow
modes by backward Duhamel iteration, solves for their derivative fields,
certifies Lipschitz and Hoelder regularity, and measures how the graphs move
under spectral and nonlinear perturbations against the theoretical envelopes.

It is used through its submodules (`imlab.config`, `imlab.cli`, ...);
`import imlab` binds only `__version__` and loads none of them.
"""

__version__ = "0.1.0"
