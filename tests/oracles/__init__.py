"""Differential oracles: slow, obviously-correct twins of the engines in
``src/``, kept for tests and benchmarks only (never imported by ``src/``)."""
