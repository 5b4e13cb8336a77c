"""Reference implementations kept only as test oracles.

Production code in ``src/`` carries one implementation of each computation;
the slower, more literal formulations it replaced live here so the
differential tests can compare the two bit for bit.
"""
